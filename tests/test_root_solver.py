"""Newton iteration, seed ladder, sweeps, and result semantics."""

import bisect
import dataclasses
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import _refs as R
from disperse import (
    BranchId,
    OracleConfig,
    SolverConfig,
    SpeciesParams,
    Statistics,
    derive_scales,
    dominant_root,
    evolve_mode,
    first_point_seeds,
    solve_at_k,
    sweep,
)
from disperse import dispersion_core, kinetic_oracle, root_solver
from disperse.dispersion_core import (
    EXACT_BRANCHES,
    ComplexRate,
    _omega_fluid,
    coefficient_C1,
    omega_degenerate_bohm_gross,
    omega_weak_biquadratic,
    residual_quadrature,
)
from disperse.errors import (DegeneracyOutOfRange, DisperseError, NoConvergence, NonConvergent, SeedFailure,
                             SingularInput)
from disperse.quantum_stats import HBAR, thermal_beta, with_bohm_term
from disperse.root_solver import check_branch_species


def rel(a, b):
    return abs(a - b) / abs(b)


def converged_root(k, branch, species, scales, config=SolverConfig()):
    for seed in first_point_seeds(k, branch, species, scales):
        try:
            res = solve_at_k(k, branch, species, scales, seed, config)
        except Exception:
            continue
        if res.converged:
            return res
    raise AssertionError(f"no converged root for {branch.name} at k = {k:.4e}")


def same(a, b):
    # repr round-trips every double, so equal reprs are equal bits
    return repr(a) == repr(b)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_solver_config_validation():
    SolverConfig(abs_tol=1e-12, max_iter=10)  # fine
    with pytest.raises(ValueError):
        SolverConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(abs_tol=-1e-10)
    with pytest.raises(ValueError, match="abs_tol"):
        SolverConfig(abs_tol=math.inf)
    with pytest.raises(ValueError, match="abs_tol"):
        SolverConfig(abs_tol=math.nan)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=2.5)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=10.0)


def test_complex_rate_refuses_non_finite_parts():
    ComplexRate(eta=-1e300, omega=1e300)  # fine
    for omega in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^omega must be positive and finite"):
            ComplexRate(eta=0.0, omega=omega)
    for eta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^eta must be finite"):
            ComplexRate(eta=eta, omega=1.0)


@pytest.mark.parametrize("k", [math.inf, math.nan, -math.inf])
def test_solver_entry_points_refuse_non_finite_k(k, weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    seed = ComplexRate(eta=0.0, omega=sc.omega_p)
    with pytest.raises(ValueError, match="^k must be positive and finite"):
        solve_at_k(k, BranchId.ExactQuadrature, sp, sc, seed)
    with pytest.raises(ValueError, match="^k must be positive and finite"):
        dominant_root(k, sp, sc)
    with pytest.raises(ValueError, match="^k grid must be positive and finite"):
        sweep([1e9, 2e9, k], BranchId.ExactWeak, sp, sc)


@pytest.mark.parametrize("k", [1e60, 1e80, 1e100, 1e300])
@pytest.mark.parametrize("gas", ["degenerate", "thermal"])
def test_entry_points_refuse_huge_k_by_name(request, gas, k):
    # past k ~ 4e40 1/m the closed forms and seeds overflow: k^4 raised a
    # bare OverflowError from 1e80 on, and the thermal seed's C1^2 gave an
    # infinite omega from 1e50 on
    sp = request.getfixturevalue("electron_degenerate" if gas == "degenerate" else "weak_fermion")
    sc = derive_scales(sp)
    exact = BranchId.ExactDegenerate if gas == "degenerate" else BranchId.ExactWeak
    closed = BranchId.QuantumLangmuir if gas == "degenerate" else BranchId.WeakSimple
    named = "^" + re.escape(f"k = {k:.6g} is too large")
    for branch in (exact, closed, BranchId.ExactQuadrature):
        with pytest.raises(ValueError, match=named):
            solve_at_k(k, branch, sp, sc, ComplexRate(eta=0.0, omega=sc.omega_p))
        with pytest.raises(ValueError, match=named):
            sweep([1e9, k], branch, sp, sc)
    with pytest.raises(ValueError, match=named):
        dominant_root(k, sp, sc)
    for signed in (k, -k):
        with pytest.raises(ValueError, match=named):
            evolve_mode(signed, sp, sc.alpha)


@pytest.mark.parametrize("gas", ["electron_degenerate", "weak_fermion"])
def test_seed_ladder_refuses_huge_k_by_name(request, gas):
    # the seed ladder is public too: k^4 raised a bare OverflowError there
    sp = request.getfixturevalue(gas)
    sc = derive_scales(sp)
    for k in (1e60, 1e300):
        for branch in (BranchId.ExactQuadrature, BranchId.ExactWeak, BranchId.QuantumLangmuir):
            try:
                check_branch_species(branch, sp, sc)
            except ValueError:
                continue
            with pytest.raises(ValueError, match="^" + re.escape(f"k = {k:.6g} is too large")):
                first_point_seeds(k, branch, sp, sc)


# ---------------------------------------------------------------------------
# frozen roots
# ---------------------------------------------------------------------------

def test_degenerate_root_frozen(electron_degenerate, electron_degenerate_scales):
    res = converged_root(R.K_REF, BranchId.ExactDegenerate,
                         electron_degenerate, electron_degenerate_scales)
    assert rel(res.rate.omega, R.DEG_ROOT_OMEGA) < 1e-12
    assert res.rate.eta == 0.0  # undamped root stays bitwise on the axis
    assert not res.rate.eta < 0.0
    assert res.residual_norm < 1e-10


def test_quadrature_root_matches_degenerate(electron_degenerate,
                                            electron_degenerate_scales):
    res = converged_root(R.K_REF, BranchId.ExactQuadrature,
                         electron_degenerate, electron_degenerate_scales)
    assert rel(res.rate.omega, R.QUAD_ROOT_OMEGA) < 1e-12
    assert rel(res.rate.omega, R.DEG_ROOT_OMEGA) < 1e-11
    assert res.rate.eta == 0.0


@pytest.mark.parametrize("x", [0.002, 0.001, 3e-4])
def test_degenerate_sweep_converges_at_very_small_k(electron_degenerate, electron_degenerate_scales, x):
    # r = k v_F / omega ~ x: the printed bracket -lg/4 - r cancels to ~r^3/3
    # there, and both degenerate residuals take the integral from the same
    # 1/p series.  omega / Omega_p - 1 is 1.2e-6, 3.0e-7 and 2.7e-8.
    sp, sc = electron_degenerate, electron_degenerate_scales
    k = x * sc.omega_p / sc.v_ch
    deg = sweep([k], BranchId.ExactDegenerate, sp, sc)[0]
    quad = sweep([k], BranchId.ExactQuadrature, sp, sc)[0]
    assert deg.converged and quad.converged
    assert rel(deg.rate.omega, quad.rate.omega) <= 1e-10
    assert same(deg.rate.eta, 0.0) and same(quad.rate.eta, 0.0)
    assert rel(deg.rate.omega / sc.omega_p - 1.0, 0.3 * x * x) < 1e-3


def test_converged_iterative_roots_meet_tolerance(weak_fermion, weak_fermion_scales):
    # from the fluid root on the axis both branches iterate off it; the
    # ExactQuadrature ladder's locus seed meets the tolerance where it starts
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    fluid = ComplexRate(eta=0.0, omega=_omega_fluid(k, weak_fermion, sc))
    for branch in (BranchId.ExactWeak, BranchId.ExactQuadrature):
        res = solve_at_k(k, branch, weak_fermion, sc, fluid)
        assert res.converged
        assert res.residual_norm < 1e-10
        assert res.iterations >= 1
    res = converged_root(k, BranchId.ExactQuadrature, weak_fermion, sc)
    assert res.converged and res.residual_norm < 1e-10 and res.iterations == 0


def test_back_substitution_into_quadrature(
    electron_degenerate, electron_degenerate_scales,
    weak_fermion, weak_fermion_scales,
):
    """Converged roots must nearly zero the contour-quadrature residual.

    Scope: degenerate and quadrature roots everywhere, series roots up to
    k v_th / omega_p = 0.25.  Above that the series branch carries its
    occupation-pole contribution with the opposite sign (see the weak
    reconciliation identity test), so its root sits on a slightly different
    curve and the cross-residual grows to the size of that term; the CSV
    output reports both branches rather than reconciling them.
    """
    budget = 100.0 * 1e-10
    vth = math.sqrt(weak_fermion_scales.v_th_sq)
    cases = [
        (R.K_REF, BranchId.ExactDegenerate, electron_degenerate,
         electron_degenerate_scales, None),
        (R.K_REF, BranchId.ExactQuadrature, electron_degenerate,
         electron_degenerate_scales, None),
        (0.375 * weak_fermion_scales.omega_p / vth, BranchId.ExactQuadrature,
         weak_fermion, weak_fermion_scales, weak_fermion_scales.alpha),
        (0.20 * weak_fermion_scales.omega_p / vth, BranchId.ExactWeak,
         weak_fermion, weak_fermion_scales, weak_fermion_scales.alpha),
        (0.25 * weak_fermion_scales.omega_p / vth, BranchId.ExactWeak,
         weak_fermion, weak_fermion_scales, weak_fermion_scales.alpha),
    ]
    for k, branch, sp, sc, alpha in cases:
        res = converged_root(k, branch, sp, sc)
        s = complex(res.rate.eta, res.rate.omega)
        assert abs(residual_quadrature(k, s, sp, alpha, sc)[0]) < budget, branch.name


def test_newton_costs_one_residual_call_per_iteration(
    monkeypatch, weak_fermion, weak_fermion_scales
):
    # one call at the seed, then per iteration one accepted trial, which
    # brings the derivative for the next step (no step is halved from this
    # seed)
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    seed = first_point_seeds(k, BranchId.ExactWeak, weak_fermion, sc)[0]
    calls = []
    original = root_solver.residual_weak

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(root_solver, "residual_weak", counted)
    res = solve_at_k(k, BranchId.ExactWeak, weak_fermion, sc, seed)
    assert res.converged and res.iterations >= 2
    assert res.rate.eta < 0.0  # the iteration left the axis
    assert len(calls) == 1 + res.iterations


_RESIDUALS = {BranchId.ExactDegenerate: "residual_degenerate", BranchId.ExactWeak: "residual_weak",
              BranchId.ExactQuadrature: "residual_quadrature"}


def _count_residual_calls(monkeypatch):
    calls = {name: [] for name in _RESIDUALS.values()}
    for name, seen in calls.items():
        def counted(*args, _original=getattr(root_solver, name), _seen=seen, **kwargs):
            _seen.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(root_solver, name, counted)
    return calls


@pytest.mark.parametrize("branch, gas", [
    (BranchId.ExactDegenerate, "electron_degenerate"),
    (BranchId.ExactQuadrature, "electron_degenerate"),
    (BranchId.ExactWeak, "weak_fermion"),
    (BranchId.ExactQuadrature, "weak_fermion"),
    (BranchId.ExactQuadrature, "weak_boson"),
])
def test_exact_branches_call_residuals_through_module_globals(monkeypatch, request, branch, gas):
    # profilers wrap root_solver.residual_*, so every exact root must reach
    # its residual through those names, and residual_quadrature's fourth
    # positional argument must tell a degenerate call (None) from a thermal one
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    calls = _count_residual_calls(monkeypatch)
    k = 0.5 * R.K_REF if sp.fully_degenerate else 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    res = solve_at_k(k, branch, sp, sc, first_point_seeds(k, branch, sp, sc)[0])
    assert res.converged
    assert len(calls[_RESIDUALS[branch]]) >= 1 + res.iterations
    assert all(not seen for name, seen in calls.items() if name != _RESIDUALS[branch])
    assert all((args[3] is None) == sp.fully_degenerate for args in calls["residual_quadrature"])


@pytest.mark.parametrize("gas", ["electron_degenerate", "neutral_degenerate", "weak_fermion", "weak_boson"])
def test_closed_form_sweeps_call_the_quadrature_through_its_module_global(monkeypatch, request, gas):
    # the tracer times the T = 0 residual_quadrature (fourth positional
    # argument None) on the closed-form diagnostics alone, so a closed-form
    # sweep makes one call a point through root_solver's global; a thermal
    # one passes the gas's fugacity
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    unit = (sc.omega_p / sc.v_ch if sp.charge else sc.v_ch / math.sqrt(sc.lambda_quantum)) if sp.fully_degenerate \
        else sc.omega_p / math.sqrt(sc.v_th_sq)
    ks = (np.linspace(0.45, 0.8, 6) * unit).tolist()
    calls = _count_residual_calls(monkeypatch)
    swept = 0
    for branch in sorted(dispersion_core.CLOSED_FORM_BRANCHES, key=lambda b: b.name):
        try:
            check_branch_species(branch, sp, sc)
        except ValueError:
            continue
        for seen in calls.values():
            seen.clear()
        sweep(ks, branch, sp, sc)
        swept += 1
        assert [args[0] for args in calls["residual_quadrature"]] == ks, branch.name
        assert not calls["residual_degenerate"] and not calls["residual_weak"]
        assert all(args[3] is None if sp.fully_degenerate else args[3] == sc.alpha
                   for args in calls["residual_quadrature"])
    assert swept >= 2


@pytest.mark.parametrize("gas", ["weak_fermion", "weak_boson"])
@pytest.mark.parametrize("branch", [BranchId.ExactWeak, BranchId.ExactQuadrature])
def test_thermal_small_k_roots_stay_on_axis(request, gas, branch):
    # at k v_th / omega_p = 0.1 the residual's imaginary part on the axis is
    # below abs_tol/2, so Newton steps along omega only and eta comes back as
    # +0.0, although the Landau damping there is representable
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    k = 0.1 * sc.omega_p / math.sqrt(sc.v_th_sq)
    res = converged_root(k, branch, sp, sc)
    assert res.residual_norm < 1e-10
    assert res.rate.eta == 0.0 and math.copysign(1.0, res.rate.eta) == 1.0
    assert not res.rate.eta < 0.0


def test_degenerate_from_damped_continuum_seed_matches_quadrature(
    electron_degenerate, electron_degenerate_scales
):
    # The printed degenerate residual has no damped root for this gas, so the
    # recombined complex residual is exercised off the axis instead: from a
    # damped seed inside the continuum (r = 2, epsilon = -0.1, region flag
    # set), where the residual jumps across eta = 0, both exact routes must
    # come back to the same undamped root.
    sp, sc = electron_degenerate, electron_degenerate_scales
    omega = R.K_REF * sc.v_ch / 2.0
    seed = ComplexRate(eta=-0.1 * omega, omega=omega)
    assert (R.K_REF * sc.v_ch) ** 2 + seed.eta**2 - seed.omega**2 >= 0.0
    deg = solve_at_k(R.K_REF, BranchId.ExactDegenerate, sp, sc, seed)
    quad = solve_at_k(R.K_REF, BranchId.ExactQuadrature, sp, sc, seed)
    assert deg.converged and quad.converged
    assert deg.residual_norm < 1e-10
    assert abs(deg.rate.s - quad.rate.s) < 1e-9 * abs(quad.rate.s)
    assert rel(deg.rate.omega, R.DEG_ROOT_OMEGA) < 1e-9


@pytest.mark.parametrize("branch", [BranchId.ExactDegenerate, BranchId.ExactQuadrature])
def test_degenerate_bohm_off_sweep_finds_no_growing_root(
    branch, electron_degenerate, electron_degenerate_scales
):
    # Past k v_F / Omega_p ~ 2.9 both degenerate residuals, which add the
    # resonance residue on the growing side too, have a spurious purely
    # growing root as omega -> 0, and continuation seeds that overshoot r = 1
    # used to settle there.  The T = 0 gas has no growing mode: every point
    # is the undamped root inside r < 1.
    sp, sc = electron_degenerate, electron_degenerate_scales
    ks = np.linspace(0.01, 4.0, 60) * sc.omega_p / sc.v_ch
    converged = [res for res in sweep(ks, branch, sp, sc, bohm_term=False) if res.converged]
    assert len(converged) >= 59
    for res in converged:
        assert res.rate.eta <= 0.0
        assert abs(res.rate.eta) <= 1e-12 * res.rate.omega
        assert res.rate.r(res.k, sc.v_ch) < 1.0


@pytest.mark.parametrize("branch", [BranchId.ExactDegenerate, BranchId.ExactQuadrature])
def test_degenerate_seed_past_resonance_stays_off_growing_side(
    branch, electron_degenerate, electron_degenerate_scales
):
    # from an undamped seed at r = 1.05 the unrestricted iteration walked
    # into eta > 0 and settled on the spurious growing root at omega -> 0
    sp, sc = electron_degenerate, electron_degenerate_scales
    for kk in (3.0, 3.5):
        k = kk * sc.omega_p / sc.v_ch
        seed = ComplexRate(eta=0.0, omega=k * sc.v_ch / 1.05)
        res = solve_at_k(k, branch, sp, sc, seed, bohm_term=False)
        assert res.converged and res.rate.eta == 0.0
        assert res.rate.r(k, sc.v_ch) < 1.0


def test_bohm_switch_lives_in_the_scales(monkeypatch, electron_degenerate, electron_degenerate_scales,
                                         weak_fermion, weak_fermion_scales):
    # bohm_term=False on a public entry point is, to the bit, the default call
    # on with_bohm_term's scales; derive_scales keeps lambda_quantum at
    # hbar^2/(4 m^2), which benchmark inputs read as their kappa unit
    scales_at = kinetic_oracle.scales_at
    covered = set()
    for sp, sc, k in [(electron_degenerate, electron_degenerate_scales, 0.5 * R.K_REF),
                      (weak_fermion, weak_fermion_scales, 0.375 * R.OMEGA_P / math.sqrt(R.VTH2_FERMI_02))]:
        off = with_bohm_term(sc, False)
        assert sc.lambda_quantum == HBAR**2 / (4.0 * R.M_E**2) and off.lambda_quantum == 0.0
        assert with_bohm_term(sc, True) is sc
        for branch in BranchId:
            try:
                check_branch_species(branch, sp, sc)
            except ValueError:
                continue
            covered.add(branch)
            seed = ComplexRate(0.0, 1.0)  # closed forms take none
            if branch in EXACT_BRANCHES:
                seeds = first_point_seeds(k, branch, sp, sc, bohm_term=False)
                assert same(seeds, first_point_seeds(k, branch, sp, off))
                seed = seeds[0]
            assert same(solve_at_k(k, branch, sp, sc, seed, bohm_term=False), solve_at_k(k, branch, sp, off, seed))
            ks = k * np.array([0.8, 0.9, 1.0])
            assert same(sweep(ks, branch, sp, sc, bohm_term=False), sweep(ks, branch, sp, off))
        root = dominant_root(k, sp, sc, bohm_term=False)
        assert same(root, dominant_root(k, sp, off))
        assert root.rate.omega < dominant_root(k, sp, sc).rate.omega  # the switch bites

        cfg = OracleConfig(t_end=20.0)
        trace = evolve_mode(k, sp, sc.alpha, cfg, bohm_term=False, fit=False)
        with monkeypatch.context() as patch:
            patch.setattr(kinetic_oracle, "scales_at", lambda *args: with_bohm_term(scales_at(*args), False))
            bare = evolve_mode(k, sp, sc.alpha, cfg, fit=False)
        assert trace.omega_guess == bare.omega_guess
        assert trace.density.tobytes() == bare.density.tobytes()
    assert covered == set(BranchId)


# ---------------------------------------------------------------------------
# seed ladder
# ---------------------------------------------------------------------------

def test_seed_ladder_is_deduplicated_and_undamped(
    electron_degenerate, electron_degenerate_scales
):
    seeds = first_point_seeds(R.K_REF, BranchId.ExactDegenerate,
                              electron_degenerate, electron_degenerate_scales)
    assert len(seeds) >= 2
    omegas = [s.omega for s in seeds]
    assert len(set(omegas)) == len(omegas)
    assert all(s.eta == 0.0 for s in seeds)
    assert all(s.omega > 0.0 for s in seeds)


@pytest.mark.parametrize("branch", list(BranchId))
def test_seed_ladder_refuses_a_wrong_gas_by_the_branch_name(branch, electron_degenerate, electron_degenerate_scales,
                                                            weak_fermion, weak_fermion_scales):
    # every branch on a T = 0 gas and on a thermal one: a branch that cannot
    # apply is refused with its own name, and one that can is seeded first
    # from its gas's regime: the degenerate closed form, the thermal gas's
    # root locus on ExactQuadrature, or else the thermal moment series'
    # fluid root
    for sp, sc, k in [(electron_degenerate, electron_degenerate_scales, 0.5 * R.K_REF),
                      (weak_fermion, weak_fermion_scales, 0.375 * R.OMEGA_P / math.sqrt(R.VTH2_FERMI_02))]:
        try:
            check_branch_species(branch, sp, sc)
        except ValueError:
            with pytest.raises(ValueError, match=f"^{branch.name} requires"):
                first_point_seeds(k, branch, sp, sc)
            continue
        first = first_point_seeds(k, branch, sp, sc)[0]
        if branch is BranchId.ExactQuadrature and not sp.fully_degenerate:
            # the thermal gas's locus covers k = 0.375 Omega_p/v_th: a damped seed
            assert first == root_solver._locus_seed(k, sp, sc) and first.eta < 0.0
            continue
        want = omega_degenerate_bohm_gross(k, sc) if sp.fully_degenerate else _omega_fluid(k, sp, sc)
        assert first == ComplexRate(eta=0.0, omega=want)


@pytest.mark.parametrize("temperature, statistics", [
    (R.T_FERMI_02, Statistics.FERMI), (R.T_FERMI_09, Statistics.FERMI), (R.T_BOSE_01, Statistics.BOSE),
    (R.T_BOSE_02, Statistics.BOSE), (R.T_BOSE_09, Statistics.BOSE), (R.T_BOSE_099, Statistics.BOSE),
    (R.T_BOSE_0999, Statistics.BOSE), (R.T_CLASSICAL, Statistics.FERMI),
])
def test_thermal_seed_is_never_farther_from_the_root_than_the_biquadratic(temperature, statistics):
    # the first thermal seed, the moment series summed to its smallest term,
    # against the quadrature root seeded at the biquadratic (a root seeded at
    # the fluid root would stop there after 0 iterations); far out, at
    # |theta| >= 6, it sits within the solver's own resolution.  Where the
    # gas's root locus covers k the first seed is the locus root instead: off
    # the axis and nearer the root than either, within the solver's resolution
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    beta = thermal_beta(sp, sc.alpha)
    located = 0
    for y in (0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.45, 0.6, 0.8, 1.0, 1.5):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        biquadratic = omega_weak_biquadratic(k, sp, sc)
        root = solve_at_k(k, BranchId.ExactQuadrature, sp, sc, ComplexRate(eta=0.0, omega=biquadratic)).rate
        fluid = _omega_fluid(k, sp, sc)
        assert abs(fluid - root.omega) <= abs(biquadratic - root.omega)
        if math.sqrt(beta) * root.omega / k >= 6.0:
            assert rel(fluid, root.omega) <= 1e-10
        seed = first_point_seeds(k, BranchId.ExactQuadrature, sp, sc)[0]
        if seed.eta == 0.0:
            assert seed.omega == fluid
            continue
        located += 1
        assert seed.eta < 0.0 and math.isfinite(seed.eta) and math.isfinite(seed.omega)
        assert abs(seed.s - root.s) <= abs(fluid - root.omega)
        assert abs(seed.s - root.s) <= 1e-10 * root.omega
    assert located >= 2  # y = 0.3 and 0.35 at least


@settings(max_examples=200, derandomize=True)
@given(
    statistics=st.sampled_from(Statistics),
    charged=st.booleans(),
    log_mass=st.floats(-31.0, -25.0),
    log_density=st.floats(18.0, 32.0),
    log_temperature=st.floats(-3.0, 9.0),
    frac=st.floats(0.0, 1.0),
    bohm_term=st.booleans(),
)
def test_thermal_seeds_are_finite_or_refuse_the_wavenumber(statistics, charged, log_mass, log_density,
                                                            log_temperature, frac, bohm_term):
    # across the constructor's thermal domain, a gas that derive_scales
    # accepts gets finite positive seeds, or a ValueError naming k, and no
    # numpy warning; k v_th/Omega_p spans 1e-3 .. 10 on a charged gas, k
    # spans 1e6 .. 1e12 1/m on a neutral one, which without the Bohm term
    # has no restoring force.  Every seed lies on the axis but a first one
    # from the gas's root locus, which is damped
    sp = SpeciesParams(mass=10.0**log_mass, charge=-R.Q_E if charged else 0.0, spin_degeneracy=2,
                       density=10.0**log_density, temperature=10.0**log_temperature, statistics=statistics)
    try:
        sc = derive_scales(sp)
    except DisperseError:
        return
    k = 10.0 ** (4.0 * frac - 3.0) * sc.omega_p / math.sqrt(sc.v_th_sq) if charged else 10.0 ** (6.0 * frac + 6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            seeds = first_point_seeds(k, BranchId.ExactQuadrature, sp, sc, bohm_term=bohm_term)
        except ValueError as err:
            assert f"k = {k:.6g}" in str(err)
            return
    assert seeds and all(0.0 < seed.omega < math.inf for seed in seeds)
    located = root_solver._locus_seed(k, sp, with_bohm_term(sc, bohm_term))
    if located is not None:
        assert seeds[0] == located and -math.inf < located.eta < 0.0
    assert all(seed.eta == 0.0 for seed in seeds[located is not None:])


def test_seed_failure_when_iteration_budget_is_tiny(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.4 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = SolverConfig(abs_tol=1e-14, max_iter=1)
    with pytest.raises(SeedFailure):
        sweep([k], BranchId.ExactWeak, weak_fermion, sc, cfg)


def test_no_convergence_carries_partial_state(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    seed = first_point_seeds(k, BranchId.ExactWeak, weak_fermion, sc)[0]
    cfg = SolverConfig(abs_tol=1e-16, max_iter=2)
    with pytest.raises(NoConvergence) as err:
        solve_at_k(k, BranchId.ExactWeak, weak_fermion, sc, seed, cfg)
    res = err.value.result  # the last iterate
    assert res.converged is False
    assert res.iterations == 2
    assert math.isfinite(res.residual_norm) and res.residual_norm > 0.0
    assert math.isfinite(res.rate.eta) and math.isfinite(res.rate.omega)


def test_singular_input_at_exact_resonance_seed(
    electron_degenerate, electron_degenerate_scales
):
    sc = electron_degenerate_scales
    seed = ComplexRate(eta=0.0, omega=R.K_REF * sc.v_ch)  # r = 1 exactly
    with pytest.raises(SingularInput):
        solve_at_k(R.K_REF, BranchId.ExactDegenerate, electron_degenerate, sc, seed)


@pytest.mark.parametrize("error", [SingularInput, NonConvergent])
def test_line_search_skips_a_trial_whose_residual_refuses(monkeypatch, weak_fermion, weak_fermion_scales, error):
    # a linear toy residual, in units of Omega_p: the full first Newton step
    # lands on the root, but that trial raises, so the line search tries the
    # half step, and the next iteration finishes
    sc = weak_fermion_scales
    k, wp = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq), sc.omega_p
    root = complex(-0.01, 1.2)
    calls = []

    def toy(k, s, species, alpha, scales):
        calls.append(s / wp)
        if len(calls) == 2:
            raise error("toy refusal")
        return s / wp - root, 1.0 / wp

    monkeypatch.setattr(root_solver, "residual_quadrature", toy)
    res = solve_at_k(k, BranchId.ExactQuadrature, weak_fermion, sc, ComplexRate(eta=0.0, omega=wp))
    assert res.converged and res.iterations == 2
    assert abs(res.rate.s / wp - root) < 1e-12
    assert abs(calls[1] - root) < 1e-12 and abs(calls[2] - (1j + root) / 2) < 1e-12


@pytest.mark.parametrize("slope", [0.0, math.nan, math.inf])
def test_newton_stops_on_a_vanishing_or_non_finite_derivative(monkeypatch, weak_fermion, weak_fermion_scales,
                                                              slope):
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    seed = ComplexRate(eta=0.0, omega=sc.omega_p)

    def toy(k, s, species, alpha, scales):
        return s / sc.omega_p - 1.2j, slope

    monkeypatch.setattr(root_solver, "residual_quadrature", toy)
    with pytest.raises(NoConvergence, match="^vanishing or non-finite derivative at iterate") as err:
        solve_at_k(k, BranchId.ExactQuadrature, weak_fermion, sc, seed)
    assert err.value.result.iterations == 0 and err.value.result.rate == seed


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_validation(electron_degenerate, electron_degenerate_scales):
    sp, sc = electron_degenerate, electron_degenerate_scales
    with pytest.raises(ValueError, match="positive"):
        sweep([0.0, R.K_REF], BranchId.ExactDegenerate, sp, sc)
    with pytest.raises(ValueError, match="increasing"):
        sweep([R.K_REF, R.K_REF], BranchId.ExactDegenerate, sp, sc)
    with pytest.raises(ValueError, match="increasing"):
        sweep([2.0 * R.K_REF, R.K_REF], BranchId.ExactDegenerate, sp, sc)


@pytest.mark.parametrize("window, max_iterations", [((0.45, 0.8), 10), ((2.0, 16.0), 3)], ids=["sound", "quantum"])
def test_neutral_zero_sound_exact_sweep(neutral_degenerate, neutral_degenerate_scales, window, max_iterations):
    # the exact branch follows the acoustic root of the neutral gas without
    # losing the scent: few iterations, strictly undamped.  Past kappa ~ 0.9
    # the quantum term sets the mode, omega ~ sqrt(C1) far above k v_F, and
    # a seed from the zero-sound form alone started a factor ~kappa low and
    # took 7-12 iterations a point
    sc = neutral_degenerate_scales
    kappas = np.linspace(*window, 8)
    ks = kappas * sc.v_ch / math.sqrt(sc.lambda_quantum)
    results = sweep(ks, BranchId.ExactDegenerate, neutral_degenerate, sc)
    assert len(results) == 8
    for res in [*results, *(dominant_root(k, neutral_degenerate, sc) for k in ks[::3])]:
        assert res.converged
        assert res.iterations <= max_iterations
        assert res.rate.eta == 0.0
        assert res.rate.omega > res.k * sc.v_ch  # phase velocity above the edge


def test_sweep_continuation_matches_ladder_restart(
    electron_degenerate, electron_degenerate_scales
):
    # continuation lands on the root the seed ladder finds from scratch
    sp, sc = electron_degenerate, electron_degenerate_scales
    ks = np.array([0.4, 0.7, 1.0]) * R.K_REF
    for res, k in zip(sweep(ks, BranchId.ExactDegenerate, sp, sc), ks):
        ladder = converged_root(k, BranchId.ExactDegenerate, sp, sc)
        assert res.converged
        assert rel(res.rate.omega, ladder.rate.omega) < 1e-10


def test_sweep_keeps_stopped_points_at_their_last_iterate(weak_fermion, weak_fermion_scales):
    # points past the first that run out of iterations are recorded as their
    # last Newton iterate instead of raising
    sc = weak_fermion_scales
    ks = [y * sc.omega_p / math.sqrt(sc.v_th_sq) for y in (0.3, 0.45, 0.75, 0.9)]
    results = sweep(ks, BranchId.ExactQuadrature, weak_fermion, sc, SolverConfig(max_iter=3))
    assert [res.converged for res in results] == [True, True, False, False]
    for res in results[2:]:
        assert res.iterations == 3
        assert SolverConfig().abs_tol < res.residual_norm < math.inf
        assert res.rate.eta < 0.0
    assert sweep([], BranchId.ExactQuadrature, weak_fermion, sc) == []


@pytest.mark.parametrize("branch, max_iter", [(BranchId.ExactWeak, 100), (BranchId.ExactQuadrature, 3)])
def test_sweep_takes_one_fluid_root_per_k(monkeypatch, weak_fermion, weak_fermion_scales, branch, max_iter):
    # the first point's seed ladder and the continuation ratio share one
    # fluid root, and a stopped point takes one too; dominant_root takes one
    # where the gas's root locus does not cover k (y = 0.2), none where it does
    sc = weak_fermion_scales
    ks = [y * sc.omega_p / math.sqrt(sc.v_th_sq) for y in (0.3, 0.45, 0.75, 0.9)]
    want = sweep(ks, branch, weak_fermion, sc, SolverConfig(max_iter=max_iter))
    calls = []

    def counted(k, species, scales):
        calls.append(k)
        return _omega_fluid(k, species, scales)

    monkeypatch.setattr(root_solver, "_omega_fluid", counted)
    assert same(sweep(ks, branch, weak_fermion, sc, SolverConfig(max_iter=max_iter)), want)
    assert calls == ks
    dominant_root(ks[0], weak_fermion, sc)
    assert calls == ks
    k = 0.2 * sc.omega_p / math.sqrt(sc.v_th_sq)
    dominant_root(k, weak_fermion, sc)
    assert calls == [*ks, k]


def test_closed_form_result_semantics(electron_degenerate, electron_degenerate_scales):
    sp, sc = electron_degenerate, electron_degenerate_scales
    res = solve_at_k(R.K_REF, BranchId.QuantumLangmuir, sp, sc,
                     ComplexRate(eta=0.0, omega=1.0))
    assert res.converged is True
    assert res.iterations == 0
    assert res.rate.eta == 0.0
    assert math.isfinite(res.residual_norm)  # back-substitution diagnostic
    assert res.branch is BranchId.QuantumLangmuir


@pytest.mark.parametrize("gas, closed", [("electron_degenerate", BranchId.QuantumLangmuir),
                                         ("weak_fermion", BranchId.WeakSimple)])
def test_results_are_what_the_dataclass_constructors_build(monkeypatch, request, gas, closed):
    # the solver fills its frozen results without the dataclasses' generated
    # __init__; every result must still be the object that __init__ builds,
    # frozen and open to dataclasses.replace, and keep ComplexRate's checks
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    unit = sc.omega_p / (sc.v_ch if sp.fully_degenerate else math.sqrt(sc.v_th_sq))
    ks = (np.linspace(0.1, 0.45, 4) * unit).tolist()
    results = [dominant_root(ks[1], sp, sc)]
    for branch in BranchId:
        try:
            check_branch_species(branch, sp, sc)
        except ValueError:
            continue
        results += sweep(ks, branch, sp, sc)
        results.append(solve_at_k(ks[2], branch, sp, sc, first_point_seeds(ks[2], branch, sp, sc)[0]))
    assert {res.branch for res in results} >= {closed, BranchId.ExactQuadrature}
    for res in results:
        built = root_solver.DispersionResult(
            k=res.k, branch=res.branch, rate=ComplexRate(eta=res.rate.eta, omega=res.rate.omega),
            residual_norm=res.residual_norm, converged=res.converged, iterations=res.iterations,
            region_flag=res.region_flag)
        assert res == built and same(res, built) and vars(res).keys() == vars(built).keys()
        assert vars(res.rate) == vars(built.rate)
        assert hash(res.rate) == hash(built.rate) and hash(res) == hash(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.iterations = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.rate.eta = 1.0
        assert dataclasses.replace(res, iterations=7) == dataclasses.replace(built, iterations=7)
        assert dataclasses.replace(res.rate, omega=2.0) == ComplexRate(eta=res.rate.eta, omega=2.0)
    # a closed form off the rate's contract fails ComplexRate's check before
    # the diagnostic's residual sees it
    monkeypatch.setitem(root_solver._CLOSED_FORMS, closed, lambda k, species, scales: math.nan)
    with pytest.raises(ValueError, match="^omega must be positive and finite"):
        sweep(ks, closed, sp, sc)
    with pytest.raises(ValueError, match="^omega must be positive and finite"):
        solve_at_k(ks[0], closed, sp, sc, ComplexRate(eta=0.0, omega=1.0))


@pytest.mark.parametrize("temperature, statistics", [
    (0.0, Statistics.FERMI), (R.T_FERMI_02, Statistics.FERMI), (R.T_BOSE_09, Statistics.BOSE),
    (R.T_BOSE_0999, Statistics.BOSE),
])
def test_closed_form_diagnostic_is_finite_where_the_quadrature_evaluates(temperature, statistics):
    # a closed form's residual_norm is max(|Re f|, |Im f|) of residual_quadrature
    # at its rate.  Near condensation (fugacity 0.999) residual_weak's series
    # runs past its term budget, and a diagnostic taken from it read inf
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    v = sc.v_ch if sp.fully_degenerate else math.sqrt(sc.v_th_sq)
    ks = (np.geomspace(0.02, 2.5, 16) * sc.omega_p / v).tolist()
    branches = [b for b in dispersion_core.CLOSED_FORM_BRANCHES
                if (b in dispersion_core.DEGENERATE_BRANCHES) == sp.fully_degenerate]
    for branch in sorted(branches, key=lambda b: b.name):
        for res in sweep(ks, branch, sp, sc):
            try:
                f = residual_quadrature(res.k, res.rate.s, sp, sc.alpha, sc)[0]
            except DisperseError:
                continue
            assert math.isfinite(res.residual_norm), (branch.name, res.k)
            assert same(res.residual_norm, max(abs(f.real), abs(f.imag))), (branch.name, res.k)


@pytest.mark.parametrize("gas, window", [("electron_degenerate", (0.01, 3.0)), ("neutral_degenerate", (0.45, 0.8))])
def test_degenerate_and_quadrature_sweeps_agree_bitwise_at_t0(request, gas, window):
    # at T = 0 ExactDegenerate and ExactQuadrature solve on one residual, so
    # every point of their sweeps is the same, to the bit and the sign of a zero
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    unit = R.K_REF if sp.charge else sc.v_ch / math.sqrt(sc.lambda_quantum)
    ks = (np.geomspace(*window, 48) * unit).tolist()
    for bohm_term in ((True, False) if sp.charge else (True,)):
        deg, quad = (sweep(ks, branch, sp, sc, bohm_term=bohm_term)
                     for branch in (BranchId.ExactDegenerate, BranchId.ExactQuadrature))
        assert all(res.converged for res in deg)
        fields = [[(r.k, r.rate, r.residual_norm, r.converged, r.iterations, r.region_flag) for r in results]
                  for results in (deg, quad)]
        assert same(*fields)


def _ladder_root(k, species, scales, bohm_term):
    for seed in first_point_seeds(k, BranchId.ExactDegenerate, species, scales, bohm_term=bohm_term):
        try:
            return solve_at_k(k, BranchId.ExactDegenerate, species, scales, seed, bohm_term=bohm_term)
        except DisperseError:
            continue
    return None


@pytest.mark.parametrize("gas, bohm_term, window, scalar_points", [
    ("electron_degenerate", True, (0.001, 3.0), 0),  # across the far-pole switch at r = 0.1
    ("electron_degenerate", False, (0.002, 3.0), 189),
    ("neutral_degenerate", True, (0.2075, 1.5), 0),
])
def test_t0_sweep_is_solve_at_k_point_by_point(monkeypatch, request, gas, bohm_term, window, scalar_points):
    # a T = 0 sweep solves its grid in one array Newton, each k from its own
    # closed-form seed, and hands the points that leave it to the scalar
    # continuation: with the Bohm term off, the seeds past k v_F/Omega_p ~ 1.59
    # lie past r = 1, where the Newton step alone cannot return.  Every point
    # is solve_at_k's root from the seed ladder: within 1e-10 relative as
    # returned (5.5e-12 read), and within 2e-13 after one Newton step on
    # each (8.5e-14 read), with the same convergence and the same eta == +0.0
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    unit = sc.omega_p / sc.v_ch if sp.charge else sc.v_ch / math.sqrt(sc.lambda_quantum)
    ks = (np.linspace(*window, 400) * unit).tolist()
    scalar = []
    original = root_solver.solve_at_k
    monkeypatch.setattr(root_solver, "solve_at_k", lambda *args, **kwargs: scalar.append(args[0]) or
                        original(*args, **kwargs))
    swept = sweep(ks, BranchId.ExactDegenerate, sp, sc, bohm_term=bohm_term)
    monkeypatch.undo()
    assert len(scalar) == scalar_points
    scales = with_bohm_term(sc, bohm_term)

    def polished(res):
        f, slope = root_solver.residual_degenerate(res.k, res.rate.s, scales)
        return res.rate.s - f / slope

    def on_axis(res):
        return res.rate.eta == 0.0 and math.copysign(1.0, res.rate.eta) == 1.0

    for res, k in zip(swept, ks):
        assert [type(v) for v in (res.k, res.rate.eta, res.rate.omega, res.residual_norm, res.iterations,
                                  res.converged, res.region_flag)] == [float] * 4 + [int, bool, bool]
        ref = _ladder_root(k, sp, sc, bohm_term)
        assert res.converged == (ref is not None), k
        if ref is None:
            continue
        assert rel(res.rate.s, ref.rate.s) <= 1e-10, k
        assert rel(polished(res), polished(ref)) <= 2e-13, k
        assert on_axis(res) == on_axis(ref), k


def test_t0_sweep_below_the_sound_window_raises_seed_failure(neutral_degenerate, neutral_degenerate_scales):
    # kappa = 0.15 has no root from any seed, so the grid's first point fails
    # as before, although later points would converge in the array Newton
    sc = neutral_degenerate_scales
    ks = (np.array([0.15, *np.linspace(0.21, 0.8, 15)]) * sc.v_ch / math.sqrt(sc.lambda_quantum)).tolist()
    with pytest.raises(SeedFailure, match="first point"):
        sweep(ks, BranchId.ExactDegenerate, neutral_degenerate, sc)
    assert all(res.converged for res in sweep(ks[1:], BranchId.ExactDegenerate, neutral_degenerate, sc))


def test_closed_form_sweep_is_solve_at_k_point_by_point(electron_degenerate, electron_degenerate_scales,
                                                       weak_fermion, weak_fermion_scales):
    # sweep evaluates closed forms without going through solve_at_k; every
    # point must still be solve_at_k's, to the bit and the sign of a zero
    covered = set()
    for sp, sc, k_unit in [(electron_degenerate, electron_degenerate_scales, R.K_REF),
                           (weak_fermion, weak_fermion_scales, R.OMEGA_P / math.sqrt(R.VTH2_FERMI_02))]:
        ks = (np.geomspace(0.01, 3.0, 12) * k_unit).tolist()
        for branch in sorted(dispersion_core.CLOSED_FORM_BRANCHES, key=lambda b: b.name):
            try:
                check_branch_species(branch, sp, sc)
            except ValueError:
                continue
            covered.add(branch)
            for bohm_term in (True, False):  # both gases are charged
                swept = sweep(ks, branch, sp, sc, bohm_term=bohm_term)
                pointwise = [solve_at_k(k, branch, sp, sc, ComplexRate(0.0, 1.0), bohm_term=bohm_term)
                             for k in ks]
                assert swept == pointwise and same(swept, pointwise), (branch.name, bohm_term)
            with pytest.raises(ValueError, match="^" + re.escape("k = 1e+60 is too large")):
                sweep([1e9, 1e60, 1e80], branch, sp, sc)
    assert covered == dispersion_core.CLOSED_FORM_BRANCHES


def test_check_branch_species_messages(
    electron_degenerate, electron_degenerate_scales,
    weak_fermion, weak_fermion_scales,
):
    with pytest.raises(ValueError, match="thermal gas"):
        check_branch_species(BranchId.ExactWeak, electron_degenerate,
                             electron_degenerate_scales)
    with pytest.raises(ValueError, match="fully degenerate"):
        check_branch_species(BranchId.ExactDegenerate, weak_fermion,
                             weak_fermion_scales)
    with pytest.raises(ValueError, match="thermal gas"):
        check_branch_species(BranchId.WeakSimple, electron_degenerate,
                             electron_degenerate_scales)
    with pytest.raises(ValueError, match="fully degenerate"):
        check_branch_species(BranchId.ZeroSound, weak_fermion, weak_fermion_scales)
    # quadrature runs on either kind
    check_branch_species(BranchId.ExactQuadrature, electron_degenerate,
                         electron_degenerate_scales)
    check_branch_species(BranchId.ExactQuadrature, weak_fermion, weak_fermion_scales)


# ---------------------------------------------------------------------------
# dominant root
# ---------------------------------------------------------------------------

def test_dominant_root_degenerate(electron_degenerate, electron_degenerate_scales):
    res = dominant_root(R.K_REF, electron_degenerate, electron_degenerate_scales)
    assert res.branch is BranchId.ExactDegenerate
    assert rel(res.rate.omega, R.DEG_ROOT_OMEGA) < 1e-12
    assert res.rate.eta == 0.0


# the Bose gas sits near condensation, where every ExactWeak seed exhausts
# its series
@pytest.mark.parametrize("gas, y", [("fermi_0.2", 0.375), ("bose_0.999", 0.3),
                                    ("bose_0.999", 0.375), ("bose_0.999", 0.45)])
def test_dominant_root_thermal_is_quadrature_root(gas, y):
    temperature, statistics = {"fermi_0.2": (R.T_FERMI_02, Statistics.FERMI),
                               "bose_0.999": (R.T_BOSE_0999, Statistics.BOSE)}[gas]
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    res = dominant_root(k, sp, sc)
    seeded = converged_root(k, BranchId.ExactQuadrature, sp, sc)
    assert res.branch is BranchId.ExactQuadrature
    assert res.converged
    assert res.rate.eta < 0.0
    assert rel(res.rate.omega, seeded.rate.omega) < 1e-10
    assert rel(res.rate.eta, seeded.rate.eta) < 1e-10


def test_dominant_root_seed_failure(weak_fermion, weak_fermion_scales):
    # beyond the gas's root locus, so every seed starts on the axis: one
    # iteration cannot reach 1e-14 from any of them; inside it, at y = 0.4,
    # the locus seed does
    sc = weak_fermion_scales
    config = SolverConfig(abs_tol=1e-14, max_iter=1)
    k = 0.7 * sc.omega_p / math.sqrt(sc.v_th_sq)
    with pytest.raises(SeedFailure):
        dominant_root(k, weak_fermion, sc, config)
    assert dominant_root(0.4 * sc.omega_p / math.sqrt(sc.v_th_sq), weak_fermion, sc, config).residual_norm <= 1e-14


def full_ladder(k, sp, sc):
    """dominant_root without its stop rules: Newton to convergence from every
    seed, then the least-damped distinct root."""
    branch = BranchId.ExactDegenerate if sp.fully_degenerate else BranchId.ExactQuadrature
    roots = []
    for seed in first_point_seeds(k, branch, sp, sc):
        try:
            res = solve_at_k(k, branch, sp, sc, seed)
        except DisperseError:
            continue
        if all(abs(res.rate.omega - other.rate.omega) > 1e-8 * res.rate.omega for other in roots):
            roots.append(res)
    return max(roots, key=lambda item: item.rate.eta)


_THERMAL_TEST_GASES = {"fermi_0.2": (R.T_FERMI_02, Statistics.FERMI), "bose_0.2": (R.T_BOSE_02, Statistics.BOSE),
                       "fermi_0.9": (R.T_FERMI_09, Statistics.FERMI), "bose_0.9": (R.T_BOSE_09, Statistics.BOSE),
                       "classical": (R.T_CLASSICAL, Statistics.FERMI)}


@pytest.mark.parametrize("gas", sorted(_THERMAL_TEST_GASES))
def test_dominant_root_equals_full_ladder_thermal(gas):
    temperature, statistics = _THERMAL_TEST_GASES[gas]
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    for y in np.linspace(0.05, 0.6, 12):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        res, ref = dominant_root(k, sp, sc), full_ladder(k, sp, sc)
        assert res == ref and same(res, ref), (gas, y)


@pytest.mark.parametrize("gas, xs", [
    ("electron_degenerate", [0.002, 0.01, 0.1, 0.5, 1.0, 2.5, 8.0]),  # k v_F / Omega_p
    ("neutral_degenerate", [0.3, 0.45, 0.6, 0.8, 1.5, 3.0, 5.3]),     # kappa
    ("electron_degenerate", np.geomspace(0.01, 2.5, 16)),              # the degenerate_run window
])
def test_dominant_root_equals_full_ladder_degenerate(request, gas, xs):
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    for x in xs:
        k = x * sc.omega_p / sc.v_ch if sp.charge else x * sc.v_ch / math.sqrt(sc.lambda_quantum)
        res, ref = dominant_root(k, sp, sc), full_ladder(k, sp, sc)
        assert res == ref and same(res, ref), (gas, x)
        assert res.rate.eta == 0.0 and math.copysign(1.0, res.rate.eta) == 1.0  # +0.0


def test_dominant_root_does_not_cut_a_seed_heading_for_another_root(
    monkeypatch, weak_fermion, weak_fermion_scales
):
    # a holomorphic toy residual with two roots, in units of Omega_p: a damped
    # one beside the third seed and a less damped one near the fourth.  The
    # first three seeds reach the damped root and the fourth, which passes
    # it, heads for the other root.
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    wp = sc.omega_p
    seeds = [seed.omega / wp for seed in first_point_seeds(k, BranchId.ExactQuadrature, sp, sc)]
    assert len(seeds) == 4 and max(seeds[:3]) < 1.1 and seeds[3] > 1.2
    damped = complex(-2e-5, seeds[2] * (1.0 + 5e-5))
    less_damped = complex(-1e-6, 1.3)

    calls, per_seed = [], []

    def toy(k, s, species, alpha, scales):
        calls.append(s)
        p = s / wp
        return (p - damped) * (p - less_damped), (2.0 * p - damped - less_damped) / wp

    solve = root_solver.solve_at_k

    def counted(*args, **kwargs):
        before = len(calls)
        try:
            out = solve(*args, **kwargs)
        except Exception as exc:
            per_seed.append((len(calls) - before, exc))
            raise
        per_seed.append((len(calls) - before, complex(out.rate.eta, out.rate.omega) / wp))
        return out

    monkeypatch.setattr(root_solver, "residual_quadrature", toy)
    monkeypatch.setattr(root_solver, "solve_at_k", counted)
    # the toy replaces the residual but not the gas's root count: take the
    # ladder, which is what this test is about
    monkeypatch.setattr(root_solver, "_box_root_count", lambda *args: None)
    res = dominant_root(k, sp, sc)
    assert abs(complex(res.rate.eta, res.rate.omega) / wp - less_damped) < 1e-10
    (_, first), (_, second), (_, third), (_, fourth) = per_seed
    assert max(abs(first - damped), abs(second - damped), abs(third - damped)) < 1e-10
    assert abs(fourth - less_damped) < 1e-10  # not cut on its way past the damped root
    assert same(res, full_ladder(k, sp, sc))


def test_quadrature_builds_a_thermal_gas_record_once(monkeypatch, weak_boson, weak_boson_scales):
    # the quadrature residual computes a gas's rate-independent scales once:
    # a cache key that took in k or s would miss on every residual call.
    # Each residual call, each fluid seed and each locus seed asks for the
    # record once, and so does dominant_root's root count, for its first
    # root, which builds the gas's table without asking again; the locus seed
    # builds the gas's locus without asking again either: the first ask
    # misses and every later one hits
    sc = weak_boson_scales
    ks = [y * sc.omega_p / math.sqrt(sc.v_th_sq) for y in (0.2, 0.3, 0.4)]
    calls, seeds, located = [], [], []
    original, fluid, locus = root_solver.residual_quadrature, root_solver._omega_fluid, root_solver._locus_seed

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    def counted_fluid(*args):
        seeds.append(args[0])
        return fluid(*args)

    monkeypatch.setattr(root_solver, "residual_quadrature", counted)
    def counted_locus(*args):
        located.append(args[0])
        return locus(*args)

    monkeypatch.setattr(root_solver, "_omega_fluid", counted_fluid)
    monkeypatch.setattr(root_solver, "_locus_seed", counted_locus)
    dispersion_core._thermal_gas.cache_clear()  # no table and no locus yet
    assert all(res.converged for res in sweep(ks, BranchId.ExactQuadrature, weak_boson, sc))
    dominant_root(1.1 * ks[-1], weak_boson, sc)
    info = dispersion_core._thermal_gas.cache_info()
    assert len(calls) > 0 and len(seeds) > 0 and located == [ks[0], 1.1 * ks[-1]]
    assert info.misses == 1 and info.misses + info.hits == len(calls) + len(seeds) + len(located) + 1


@pytest.mark.parametrize("delta", [1e-8, 1e-7, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2, 1e-1])
def test_dominant_root_converges_just_above_bose_condensation(delta):
    # T = T_c (1 + delta), fugacity 1 - 1.2 delta^2 down to 1 - 1.1e-16: the
    # occupation poles as near the real axis as a double can put them
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_C * (1.0 + delta), statistics=Statistics.BOSE)
    sc = derive_scales(sp)
    for y in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        res = dominant_root(y * sc.omega_p / math.sqrt(sc.v_th_sq), sp, sc)
        assert res.converged and res.rate.eta <= 0.0, (delta, y)


# ---------------------------------------------------------------------------
# the thermal root count that stops dominant_root at its first root
# ---------------------------------------------------------------------------

_NEAR_POLE_GASES = {"bose_0.92": (R.T_BOSE_092, Statistics.BOSE), "bose_0.94": (R.T_BOSE_094, Statistics.BOSE),
                    "bose_0.999": (R.T_BOSE_0999, Statistics.BOSE)}


def _thermal_species(gas):
    temperature, statistics = {**_THERMAL_TEST_GASES, **_NEAR_POLE_GASES, **_LOCUS_TEST_GASES}[gas]
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    return sp, derive_scales(sp)


def _with_table(sp, sc):
    # the gas's table, built on this first ask if no call has built it yet
    return dispersion_core._thermal_gas(sp, sc.alpha)[1].table


def _count_solves(monkeypatch):
    calls = []
    solve = root_solver.solve_at_k

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(root_solver, "solve_at_k", counted)
    return calls


def _table_count(k, sp, sc):
    # the gas table's count at X(k) = k^2 W^2 / C1(k), None where X(k) is
    # inside a tube
    w_scale, _ = dispersion_core._thermal_gas(sp, sc.alpha)
    lows, highs, counts = _with_table(sp, sc)
    x = (k * w_scale) ** 2 / dispersion_core.coefficient_C1(k, sc)
    i = bisect.bisect_right(lows, x) - 1
    return counts[i] if i >= 0 and x < highs[i] else None


def _dense_count(k, sp, sc, left, right, n):
    # the argument principle on the exact residual f(k, s) itself: its
    # winding around 0 along the rectangle Re p_hat in [left, right],
    # Im p_hat in the box's range, p_hat = i s/(k W), from n steps along
    # Re p_hat (geometric left of 0, where J turns fastest near 0) and 16
    # along Im p_hat, each bisected until it turns at most an eighth of a turn
    w_scale, _ = dispersion_core._thermal_gas(sp, sc.alpha)
    bottom, top = dispersion_core._BOX_IM
    along = (np.geomspace(left, right, n + 1) if right < 0.0 else np.linspace(left, right, n + 1)).tolist()
    up = np.linspace(bottom, top, 17).tolist()
    corners = ([complex(x, bottom) for x in along[:-1]] + [complex(right, y) for y in up[:-1]]
               + [complex(x, top) for x in along[:0:-1]] + [complex(left, y) for y in up[:0:-1]])

    def f(p):
        return residual_quadrature(k, -1j * k * w_scale * p, sp, sc.alpha, sc)[0]

    values = [f(p) for p in corners]
    total = 0.0
    for a, fa, b, fb in zip(corners, values, corners[1:] + corners[:1], values[1:] + values[:1]):
        stack = [(a, fa, b, fb, 0)]
        while stack:
            a, fa, b, fb, depth = stack.pop()
            turn = float(np.angle(fb / fa))
            if abs(turn) > 0.25 * math.pi:
                assert depth < 30, (a, b)
                m = 0.5 * (a + b)
                fm = f(m)
                stack += [(a, fa, m, fm, depth + 1), (m, fm, b, fb, depth + 1)]
            else:
                total += turn
    return round(total / (2.0 * math.pi))


@pytest.mark.parametrize("gas", sorted(_THERMAL_TEST_GASES))
def test_dominant_root_certifies_its_first_thermal_root(monkeypatch, gas):
    # on the full-ladder test's y-grid the box holds exactly one root at
    # every k, so once the gas has its table a call runs one seed
    sp, sc = _thermal_species(gas)
    ks = [y * sc.omega_p / math.sqrt(sc.v_th_sq) for y in np.linspace(0.05, 0.6, 12)]
    _with_table(sp, sc)
    calls = _count_solves(monkeypatch)
    for k in ks:
        res = dominant_root(k, sp, sc)
        assert root_solver._box_root_count(k, res.rate.s, sp, sc.alpha, sc) == 1
    assert calls == ks


def _record_seeds(monkeypatch):
    seeds = []
    solve = root_solver.solve_at_k

    def counted(*args, **kwargs):
        seeds.append(args[4])
        return solve(*args, **kwargs)

    monkeypatch.setattr(root_solver, "solve_at_k", counted)
    return seeds


@pytest.mark.parametrize("gas", sorted(_THERMAL_TEST_GASES))
def test_a_served_thermal_call_builds_only_its_first_seed(monkeypatch, gas):
    # a call the gas's table serves at the fluid seed makes one solve_at_k
    # call, from that seed, and builds none of the ladder's later seeds: the
    # dispersionless and the expanded value are never computed
    sp, sc = _thermal_species(gas)
    ks = [y * sc.omega_p / math.sqrt(sc.v_th_sq) for y in np.linspace(0.05, 0.6, 12)]
    ladders = [first_point_seeds(k, BranchId.ExactQuadrature, sp, sc) for k in ks]
    _with_table(sp, sc)

    def later_seed(*args):
        raise AssertionError("a served call built a later seed")

    monkeypatch.setattr(root_solver, "omega_quantum_langmuir", later_seed)
    monkeypatch.setattr(root_solver, "omega_weak_simple", later_seed)
    seeds = _record_seeds(monkeypatch)
    for k, ladder in zip(ks, ladders):
        seeds.clear()
        dominant_root(k, sp, sc)
        assert seeds == ladder[:1]


@pytest.mark.parametrize("gas, ys", [
    ("fermi_0.2", [1.0]),  # a root below the box
    ("bose_0.999", [0.35, 0.6]),  # a pole beside the box: no table
])
def test_unserved_thermal_calls_try_the_whole_ladder_in_order(monkeypatch, gas, ys):
    sp, sc = _thermal_species(gas)
    seeds = _record_seeds(monkeypatch)
    for y in ys:
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        seeds.clear()
        res = dominant_root(k, sp, sc)
        assert res.rate.eta < 0.0
        assert root_solver._box_root_count(k, res.rate.s, sp, sc.alpha, sc) is None
        assert seeds == first_point_seeds(k, BranchId.ExactQuadrature, sp, sc), (gas, y)


# ---------------------------------------------------------------------------
# the thermal root locus that seeds ExactQuadrature's first rung
# ---------------------------------------------------------------------------

_LOCUS_TEST_GASES = {**_THERMAL_TEST_GASES, "bose_0.1": (R.T_BOSE_01, Statistics.BOSE),
                     "bose_0.5": (R.T_BOSE_05, Statistics.BOSE), "bose_0.99": (R.T_BOSE_099, Statistics.BOSE)}


def _locus_ks(sp, sc):
    # a dense grid of k v_th/Omega_p from the axis roots through the locus and past it
    return [y * sc.omega_p / math.sqrt(sc.v_th_sq) for y in np.linspace(0.1, 0.75, 131)]


@pytest.mark.parametrize("gas", sorted(_LOCUS_TEST_GASES))
def test_the_locus_seed_meets_the_tolerance_across_its_domain(gas):
    # wherever the locus covers k its root is the residual's root to
    # abs_tol as it stands: Newton takes no step; the covered k form one
    # interval, which holds k v_th/Omega_p 0.3-0.43 on every test gas
    sp, sc = _thermal_species(gas)
    covered = []
    for k in _locus_ks(sp, sc):
        seed = root_solver._locus_seed(k, sp, sc)
        if seed is None:
            continue
        covered.append(k)
        assert seed.eta < 0.0 and seed == first_point_seeds(k, BranchId.ExactQuadrature, sp, sc)[0]
        res = solve_at_k(k, BranchId.ExactQuadrature, sp, sc, seed)
        assert res.iterations == 0 and res.residual_norm <= SolverConfig().abs_tol, (gas, k)
        assert same(res.rate, seed)
    unit = sc.omega_p / math.sqrt(sc.v_th_sq)
    ks = _locus_ks(sp, sc)
    assert covered == ks[ks.index(covered[0]):ks.index(covered[-1]) + 1]
    assert covered[0] <= 0.3 * unit and covered[-1] >= 0.43 * unit


@pytest.mark.parametrize("gas", sorted(set(_LOCUS_TEST_GASES) - {"bose_0.99"}))
def test_a_served_call_in_the_locus_makes_one_residual_call(monkeypatch, gas):
    # the locus seed converges where it starts and the table counts its
    # root alone in the box: one residual_quadrature call, and no fluid root
    # (Bose 0.99 has a pole beside the box, so no table, and runs the ladder)
    sp, sc = _thermal_species(gas)
    ks = [k for k in _locus_ks(sp, sc) if root_solver._locus_seed(k, sp, sc) is not None]
    _with_table(sp, sc)
    calls = _count_residual_calls(monkeypatch)

    def no_fluid_root(*args):
        raise AssertionError("a call the locus covers took a fluid root")

    monkeypatch.setattr(root_solver, "_omega_fluid", no_fluid_root)
    for k in ks:
        res = dominant_root(k, sp, sc)
        assert res.iterations == 0 and res.rate.eta < 0.0
    assert [args[0] for args in calls["residual_quadrature"]] == ks
    assert not calls["residual_weak"] and not calls["residual_degenerate"]


@pytest.mark.parametrize("gas", sorted(_LOCUS_TEST_GASES))
def test_undamped_thermal_roots_keep_the_fluid_rung(gas):
    # a root whose damping rounds to +0.0 lies far below the locus's
    # damping floor: its ladder starts from the fluid root on the axis, so
    # its bits are the fluid seed's
    sp, sc = _thermal_species(gas)
    undamped = 0
    for k in _locus_ks(sp, sc):
        res = dominant_root(k, sp, sc)
        if res.rate.eta == 0.0:
            undamped += 1
            assert math.copysign(1.0, res.rate.eta) == 1.0
            assert root_solver._locus_seed(k, sp, sc) is None
            assert first_point_seeds(k, BranchId.ExactQuadrature, sp, sc)[0] == ComplexRate(
                eta=0.0, omega=_omega_fluid(k, sp, sc))
    assert undamped >= 10


@pytest.mark.parametrize("gas", ["fermi_0.2", "bose_0.9"])
def test_the_locus_is_the_same_whatever_call_builds_it(gas):
    # a fresh gas record builds its locus at its first ExactQuadrature seed
    # ladder: a sweep's first point outside the locus, dominant_root inside
    # it (at the largest k first, or the smallest) or first_point_seeds; the
    # locus and every result are the same bits whichever call came first
    sp, sc = _thermal_species(gas)
    unit = sc.omega_p / math.sqrt(sc.v_th_sq)
    ks = [y * unit for y in (0.15, 0.3, 0.35, 0.4, 0.45)]
    calls = {
        "sweep": lambda: sweep(ks, BranchId.ExactQuadrature, sp, sc),
        "dominant": lambda: [dominant_root(k, sp, sc) for k in ks],
        "dominant_down": lambda: [dominant_root(k, sp, sc) for k in ks[::-1]][::-1],
        "seeds": lambda: [first_point_seeds(k, BranchId.ExactQuadrature, sp, sc) for k in ks[::-1]],
    }
    runs = []
    for order in (["sweep", "dominant", "seeds"], ["dominant_down", "seeds", "sweep"],
                  ["seeds", "sweep", "dominant"]):
        dispersion_core._thermal_gas.cache_clear()
        record = dispersion_core._thermal_gas(sp, sc.alpha)[1]
        assert "locus" not in vars(record)
        results = {name.split("_")[0]: calls[name]() for name in order}
        assert record.locus is not None
        runs.append((record.locus, results))
    (locus, want), *others = runs
    for other_locus, results in others:
        assert other_locus == locus
        assert all(same(results[name], want[name]) for name in want)


@pytest.mark.parametrize("gas, xs", [
    ("electron_degenerate", [0.002, 0.1, 1.0, 8.0]),  # k v_F / Omega_p
    ("neutral_degenerate", [0.3, 0.6, 3.0]),          # kappa
    ("fermi_0.2", [0.02]),                            # y: a root left of the box
    ("bose_0.999", [0.1]),                            # y: a pole beside the box
])
def test_an_undamped_first_root_builds_only_its_first_seed(monkeypatch, request, gas, xs):
    # no root is less damped than an undamped one: the call makes one
    # solve_at_k call, from the first seed, and builds no later seed
    if gas in _THERMAL_TEST_GASES or gas in _NEAR_POLE_GASES:
        sp, sc = _thermal_species(gas)
        ks = [x * sc.omega_p / math.sqrt(sc.v_th_sq) for x in xs]
    else:
        sp = request.getfixturevalue(gas)
        sc = request.getfixturevalue(gas + "_scales")
        ks = [x * sc.omega_p / sc.v_ch if sp.charge else x * sc.v_ch / math.sqrt(sc.lambda_quantum) for x in xs]
    refs = [full_ladder(k, sp, sc) for k in ks]
    branch = BranchId.ExactDegenerate if sp.fully_degenerate else BranchId.ExactQuadrature
    ladders = [first_point_seeds(k, branch, sp, sc) for k in ks]

    def later_seed(*args):
        raise AssertionError("an undamped first root built a later seed")

    monkeypatch.setattr(root_solver, "omega_quantum_langmuir", later_seed)
    monkeypatch.setattr(root_solver, "omega_weak_simple", later_seed)
    seeds = _record_seeds(monkeypatch)
    for x, k, ref, ladder in zip(xs, ks, refs, ladders):
        seeds.clear()
        res = dominant_root(k, sp, sc)
        assert seeds == ladder[:1], (gas, x)
        assert res.rate.eta == 0.0 and same(res, ref), (gas, x)


def test_a_degenerate_call_with_no_root_tries_the_whole_ladder_in_order(
    monkeypatch, neutral_degenerate, neutral_degenerate_scales
):
    # kappa = 0.1, below the window where the exact residual resolves the
    # sound root: every seed fails, in ladder order
    sp, sc = neutral_degenerate, neutral_degenerate_scales
    k = 0.1 * sc.v_ch / math.sqrt(sc.lambda_quantum)
    seeds = _record_seeds(monkeypatch)
    with pytest.raises(SeedFailure):
        dominant_root(k, sp, sc)
    assert seeds == first_point_seeds(k, BranchId.ExactDegenerate, sp, sc)


def _axis_root(k, scales):
    """omega of the undamped T = 0 root in 60 digits: the axis equation
    (C1/(k^2 v_F^2)) (-3 + (3/(2r)) ln((1 + r)/(1 - r))) = 1 solved in
    L = ln(1 - r), which resolves r next to 1, from the closed form's L."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        kv = mp.mpf(k) * mp.mpf(scales.v_ch)
        a = mp.mpf(coefficient_C1(k, scales)) / kv**2

        def axis(L):
            d = mp.exp(L)
            return a * (-3 + 3 * (mp.log(2 - d) - L) / (2 * (1 - d))) - 1

        L = mp.findroot(axis, mp.log(2) - 2 / (3 * a) - 2)
        return float(kv / (1 - mp.exp(L)))


@pytest.mark.parametrize("gas, x", [("neutral_degenerate", kappa) for kappa in (0.21, 0.215, 0.22, 0.225, 0.23)]
                         + [("electron_degenerate", x) for x in (4.4, 4.5, 4.6, 4.7)])
def test_dominant_root_resolves_undamped_roots_next_to_the_edge(request, gas, x):
    # kappa on the neutral gas, k v_F/Omega_p with the Bohm term off on the
    # charged one: edge gaps 1 - k v_F/omega of 7e-8 to 9e-7, so each root
    # and Newton's last trials lie within 1e-6 of r = 1
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    bohm = not sp.charge
    k = x * sc.omega_p / sc.v_ch if sp.charge else x * sc.v_ch / math.sqrt(sc.lambda_quantum)
    res = dominant_root(k, sp, sc, bohm_term=bohm)
    assert res.converged
    assert res.rate.eta == 0.0 and math.copysign(1.0, res.rate.eta) > 0
    assert rel(res.rate.omega, _axis_root(k, with_bohm_term(sc, bohm))) < 1e-14


@pytest.mark.parametrize("gas", sorted(_THERMAL_TEST_GASES) + ["bose_0.92", "bose_0.94"])
def test_box_count_table_matches_a_dense_count_on_the_residual(gas):
    # the table against a dense count on the residual over the box, and no
    # root in the strip between the box and Re p_hat = 0.  Bose 0.92 and 0.94
    # have their n = 0 occupation pole just below that strip, where J
    # changes fastest
    sp, sc = _thermal_species(gas)
    (left, right), strip_end = dispersion_core._BOX_RE, 0.0
    for y in (0.1, 0.35, 0.6):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        assert _table_count(k, sp, sc) == _dense_count(k, sp, sc, left, right, 40) == 1, (gas, y)
        assert _dense_count(k, sp, sc, right, strip_end, 4) == 0, (gas, y)


@pytest.mark.parametrize("gas", sorted(_THERMAL_TEST_GASES) + ["bose_0.92", "bose_0.94"])
def test_the_response_beyond_the_box_stays_below_the_counted_x(gas):
    # the table counts X only above |J| on the box's left edge: left of the
    # box, at the box's damping rates and above, |J| is smaller still
    sp, sc = _thermal_species(gas)
    _, table_gas = dispersion_core._thermal_gas(sp, sc.alpha)
    lows = _with_table(sp, sc)[0]
    bottom, top = dispersion_core._BOX_IM
    far = max(abs(dispersion_core._thermal_response(complex(x, y), table_gas)[0])
              for x in -np.geomspace(6.0, 1e3, 40) for y in np.linspace(bottom, top, 6))
    assert far < lows[0]


def _fresh_fermi_gas(temperature):
    # the record cache is emptied first, so the gas's record is new and has
    # built no table
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=Statistics.FERMI)
    sc = derive_scales(sp)
    dispersion_core._thermal_gas.cache_clear()
    record = dispersion_core._thermal_gas(sp, sc.alpha)[1]
    assert "table" not in vars(record)
    return sp, sc, record


def test_a_gas_builds_its_table_at_its_first_call_in_the_box(monkeypatch):
    # the first call's first root lies in the box: the call builds the
    # table, which counts one root there, and runs one seed
    sp, sc, record = _fresh_fermi_gas(3.3e4)
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    calls = _count_solves(monkeypatch)
    res = dominant_root(k, sp, sc)
    assert calls == [k] and vars(record)["table"] is not None
    assert same(res, full_ladder(k, sp, sc))


def test_roots_outside_the_box_build_no_table():
    sp, sc, record = _fresh_fermi_gas(3.4e4)
    for y in (0.02, 1.0):  # left of the box; below it
        dominant_root(y * sc.omega_p / math.sqrt(sc.v_th_sq), sp, sc)
    assert "table" not in vars(record)


def test_dominant_root_takes_the_ladder_on_a_count_of_two(monkeypatch, weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.36 * sc.omega_p / math.sqrt(sc.v_th_sq)
    monkeypatch.setattr(root_solver, "_box_root_count", lambda *args: 2)
    calls = _count_solves(monkeypatch)
    res = dominant_root(k, sp, sc)
    assert len(calls) == len(first_point_seeds(k, BranchId.ExactQuadrature, sp, sc)) == 4
    assert same(res, full_ladder(k, sp, sc))


@pytest.mark.parametrize("y", [1.0])  # a damped root below the box
def test_dominant_root_takes_the_ladder_on_a_root_outside_the_box(monkeypatch, weak_fermion, weak_fermion_scales, y):
    sp, sc = weak_fermion, weak_fermion_scales
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    _with_table(sp, sc)
    calls = _count_solves(monkeypatch)
    res = dominant_root(k, sp, sc)
    assert res.rate.eta < 0.0
    assert root_solver._box_root_count(k, res.rate.s, sp, sc.alpha, sc) is None
    assert len(calls) == 4 and same(res, full_ladder(k, sp, sc))


def test_box_root_count_refuses_a_rate_outside_the_box(weak_fermion, weak_fermion_scales):
    # the same k, where the count is certainly 1, with the rate moved below the box
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.45 * sc.omega_p / math.sqrt(sc.v_th_sq)
    _with_table(sp, sc)
    res = dominant_root(k, sp, sc)
    w_scale, _ = dispersion_core._thermal_gas(sp, sc.alpha)
    below = complex(-0.05 * k * w_scale, res.rate.omega)  # Im p_hat = -0.05
    assert dispersion_core._box_root_count(k, res.rate.s, sp, sc.alpha, sc) == 1
    assert dispersion_core._box_root_count(k, below, sp, sc.alpha, sc) is None


@pytest.mark.parametrize("gas", ["bose_0.92", "bose_0.94"])
def test_dominant_root_equals_full_ladder_beside_the_bose_pole(gas):
    # the hardest gases that get a table: their n = 0 pole sits just below
    # the strip right of the box
    sp, sc = _thermal_species(gas)
    _with_table(sp, sc)
    for y in np.linspace(0.05, 0.6, 12):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        res, ref = dominant_root(k, sp, sc), full_ladder(k, sp, sc)
        assert res == ref and same(res, ref), (gas, y)


def test_a_bose_gas_with_a_pole_beside_the_box_keeps_the_ladder():
    # fugacity 0.999 puts an occupation pole at p_hat = -0.004i, between the
    # box and Re p_hat = 0: no table, and the ladder as before
    sp, sc = _thermal_species("bose_0.999")
    assert _with_table(sp, sc) is None
    for y in np.linspace(0.05, 0.6, 6):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        res, ref = dominant_root(k, sp, sc), full_ladder(k, sp, sc)
        assert res == ref and same(res, ref), y


# ---------------------------------------------------------------------------
# property: the charged degenerate branch converges across the band
# ---------------------------------------------------------------------------

@settings(max_examples=15)
@given(frac=st.floats(min_value=0.02, max_value=1.2))
def test_degenerate_branch_converges_at_random_k(
    frac, electron_degenerate, electron_degenerate_scales
):
    res = dominant_root(frac * R.K_REF, electron_degenerate,
                        electron_degenerate_scales)
    assert res.converged
    assert res.rate.omega >= electron_degenerate_scales.omega_p
    assert res.rate.eta == 0.0


# ---------------------------------------------------------------------------
# property: on a random T = 0 gas dominant_root finds an undamped root or refuses
# ---------------------------------------------------------------------------

@settings(max_examples=300, derandomize=True)
@given(
    log_mass=st.floats(-31.0, -25.0),
    log_density=st.floats(18.0, 32.0),
    kind=st.sampled_from(["bohm_on", "bohm_off", "neutral"]),
    log_x=st.floats(-3.0, 1.0),
    log_k=st.floats(6.0, 12.0),
)
def test_t0_dominant_root_is_undamped_or_refuses(log_mass, log_density, kind, log_x, log_k):
    # log_x is log10 k v_F/Omega_p on a charged gas, log_k log10 k in 1/m on
    # a neutral one; a numpy warning fails the test (pyproject filterwarnings)
    sp = SpeciesParams(mass=10.0**log_mass, charge=0.0 if kind == "neutral" else -R.Q_E, spin_degeneracy=2,
                       density=10.0**log_density, temperature=0.0, statistics=Statistics.FERMI)
    try:
        sc = derive_scales(sp)
        k = 10.0**log_k if kind == "neutral" else 10.0**log_x * sc.omega_p / sc.v_ch
        res = dominant_root(k, sp, sc, bohm_term=kind != "bohm_off")
    except (DisperseError, ValueError):
        return
    assert math.isfinite(res.rate.omega) and res.rate.omega > 0.0
    assert res.rate.eta == 0.0 and math.copysign(1.0, res.rate.eta) > 0


# ---------------------------------------------------------------------------
# property: on a random thermal gas dominant_root returns the full ladder's root
# ---------------------------------------------------------------------------

@settings(max_examples=80, derandomize=True)
@given(
    statistics=st.sampled_from([Statistics.FERMI, Statistics.BOSE]),
    log_t=st.floats(math.log10(4e3), 8.0),
    log_n0=st.floats(26.0, 30.0),
    y=st.floats(0.01, 2.0),
    near_tc=st.none() | st.floats(-8.0, -1.0),
)
def test_dominant_root_equals_full_ladder_on_random_thermal_gases(statistics, log_t, log_n0, y, near_tc):
    # served or not, undamped or not, the result is the full ladder's bit for
    # bit; near_tc, when drawn, puts a Bose gas at T = T_c (1 + 10^near_tc),
    # its fugacity 1 - 1e-16 to 1 - 1e-2, where the gas's locus and table
    # are built beside occupation poles near the axis
    if near_tc is not None:
        statistics = Statistics.BOSE
        log_t = math.log10(R.T_BOSE_C * (10.0**log_n0 / R.N0) ** (2.0 / 3.0) * (1.0 + 10.0**near_tc))
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=10.0**log_n0,
                       temperature=10.0**log_t, statistics=statistics)
    try:
        sc = derive_scales(sp)
    except DegeneracyOutOfRange:
        assume(False)  # a Bose gas this cold and dense condenses
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    res, ref = dominant_root(k, sp, sc), full_ladder(k, sp, sc)
    assert res == ref and same(res, ref)


# ---------------------------------------------------------------------------
# property: any solver configuration gives finite rates or a deliberate error
# ---------------------------------------------------------------------------

@settings(max_examples=60, derandomize=True)
@given(
    gas=st.sampled_from(["electron_degenerate", "weak_fermion", "weak_boson"]),
    quadrature=st.booleans(),
    log_tol=st.floats(-14.0, -4.0),
    max_iter=st.integers(1, 60),
    y=st.floats(0.05, 1.2),
    use_sweep=st.booleans(),
)
def test_solver_config_and_k_give_finite_rates_or_refuse(request, gas, quadrature, log_tol, max_iter,
                                                          y, use_sweep):
    # y is k over Omega_p / v_F (degenerate) or Omega_p / v_th (thermal); a
    # sweep runs three points up to 1.2 y.  Wall budget: 5 s an example,
    # against 1-12 ms typical on a shared 2-vCPU box.
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    if quadrature:
        branch = BranchId.ExactQuadrature
    else:
        branch = BranchId.ExactDegenerate if sp.fully_degenerate else BranchId.ExactWeak
    config = SolverConfig(abs_tol=10.0**log_tol, max_iter=max_iter)
    k = y * sc.omega_p / (sc.v_ch if sp.fully_degenerate else math.sqrt(sc.v_th_sq))
    start = time.perf_counter()
    try:
        if use_sweep:
            results = sweep([k, 1.1 * k, 1.2 * k], branch, sp, sc, config)
        else:
            results = [solve_at_k(k, branch, sp, sc, first_point_seeds(k, branch, sp, sc)[0], config)]
    except DisperseError:
        results = []
    assert time.perf_counter() - start < 5.0
    for res in results:
        assert math.isfinite(res.rate.omega) and math.isfinite(res.rate.eta)
        if res.converged:
            assert res.residual_norm < config.abs_tol
