"""Newton iteration, seed ladder, sweeps, and result semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _refs as R
from disperse import (
    BranchId,
    ComplexRate,
    SeedFailure,
    SingularInput,
    SolverConfig,
    check_branch_species,
    dominant_root,
    first_point_seeds,
    residual_quadrature,
    solve_at_k,
    sweep,
)
from disperse import root_solver
from disperse.errors import NoConvergence


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


# ---------------------------------------------------------------------------
# frozen roots
# ---------------------------------------------------------------------------

def test_degenerate_root_frozen(electron_degenerate, electron_degenerate_scales):
    res = converged_root(R.K_REF, BranchId.ExactDegenerate,
                         electron_degenerate, electron_degenerate_scales)
    assert rel(res.rate.omega, R.DEG_ROOT_OMEGA) < 1e-12
    assert res.rate.eta == 0.0  # undamped root stays bitwise on the axis
    assert not res.damped
    assert res.residual_norm < 1e-10


def test_quadrature_root_matches_degenerate(electron_degenerate,
                                            electron_degenerate_scales):
    res = converged_root(R.K_REF, BranchId.ExactQuadrature,
                         electron_degenerate, electron_degenerate_scales)
    assert rel(res.rate.omega, R.QUAD_ROOT_OMEGA) < 1e-12
    assert rel(res.rate.omega, R.DEG_ROOT_OMEGA) < 1e-11
    assert res.rate.eta == 0.0


def test_converged_iterative_roots_meet_tolerance(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    for branch in (BranchId.ExactWeak, BranchId.ExactQuadrature):
        res = converged_root(k, branch, weak_fermion, sc)
        assert res.converged
        assert res.residual_norm < 1e-10
        assert res.iterations >= 1


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
        assert abs(residual_quadrature(k, s, sp, alpha, sc)) < budget, branch.name


def test_newton_costs_two_residual_calls_per_iteration(
    monkeypatch, weak_fermion, weak_fermion_scales
):
    # one call at the seed, then per iteration one derivative probe along
    # omega and one accepted trial (no step is halved from this seed)
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
    assert len(calls) == 1 + 2 * res.iterations


@pytest.mark.parametrize("gas", ["weak_fermion", "weak_boson"])
@pytest.mark.parametrize("branch", [BranchId.ExactWeak, BranchId.ExactQuadrature])
def test_thermal_small_k_roots_stay_on_axis(request, gas, branch):
    # the Landau term underflows at k v_th / omega_p = 0.1, so the residual is
    # real on the axis up to roundoff and eta must come back as +0.0
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    k = 0.1 * sc.omega_p / math.sqrt(sc.v_th_sq)
    res = converged_root(k, branch, sp, sc)
    assert res.residual_norm < 1e-10
    assert res.rate.eta == 0.0 and math.copysign(1.0, res.rate.eta) == 1.0
    assert not res.damped


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
    x, norm, iterations = err.value.partial
    assert len(x) == 2 and math.isfinite(norm) and iterations == 2
    res = err.value.result
    assert res is not None
    assert res.converged is False
    assert res.iterations == 2


def test_singular_input_at_exact_resonance_seed(
    electron_degenerate, electron_degenerate_scales
):
    sc = electron_degenerate_scales
    seed = ComplexRate(eta=0.0, omega=R.K_REF * sc.v_ch)  # r = 1 exactly
    with pytest.raises(SingularInput):
        solve_at_k(R.K_REF, BranchId.ExactDegenerate, electron_degenerate, sc, seed)


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


def test_neutral_zero_sound_exact_sweep(neutral_degenerate, neutral_degenerate_scales):
    # the exact branch follows the acoustic root of the neutral gas without
    # losing the scent: few iterations, strictly undamped
    sc = neutral_degenerate_scales
    kappas = np.linspace(0.45, 0.8, 8)
    ks = kappas * sc.v_ch / math.sqrt(sc.lambda_quantum)
    results = sweep(ks, BranchId.ExactDegenerate, neutral_degenerate, sc)
    assert len(results) == 8
    for res in results:
        assert res.converged
        assert res.iterations <= 10
        assert res.rate.eta == 0.0
        assert res.rate.omega > res.k * sc.v_ch  # phase velocity above the edge


def test_sweep_continuation_matches_ladder_restart(
    electron_degenerate, electron_degenerate_scales
):
    sp, sc = electron_degenerate, electron_degenerate_scales
    ks = np.array([0.4, 0.7, 1.0]) * R.K_REF
    with_cont = sweep(ks, BranchId.ExactDegenerate, sp, sc,
                      SolverConfig(continuation=True))
    without = sweep(ks, BranchId.ExactDegenerate, sp, sc,
                    SolverConfig(continuation=False))
    for a, b in zip(with_cont, without):
        assert a.converged and b.converged
        assert rel(a.rate.omega, b.rate.omega) < 1e-10


def test_closed_form_result_semantics(electron_degenerate, electron_degenerate_scales):
    sp, sc = electron_degenerate, electron_degenerate_scales
    res = solve_at_k(R.K_REF, BranchId.QuantumLangmuir, sp, sc,
                     ComplexRate(eta=0.0, omega=1.0))
    assert res.converged is True
    assert res.iterations == 0
    assert res.rate.eta == 0.0
    assert math.isfinite(res.residual_norm)  # back-substitution diagnostic
    assert res.branch is BranchId.QuantumLangmuir


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


def test_dominant_root_weak_is_least_damped(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    res = dominant_root(k, weak_fermion, sc)
    assert res.branch is BranchId.ExactWeak
    assert res.converged
    assert res.rate.eta <= 0.0


def test_dominant_root_seed_failure(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.4 * sc.omega_p / math.sqrt(sc.v_th_sq)
    with pytest.raises(SeedFailure):
        dominant_root(k, weak_fermion, sc, SolverConfig(abs_tol=1e-14, max_iter=1))


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
