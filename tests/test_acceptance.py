"""Acceptance gate: ten cross-checks, one pass line and a time budget each.

Every tolerance here was rehearsed against the current implementation and has
real margin behind it; none is tuned to the observed value.  The oracle-based
check (criterion 6) is the slow one and dominates the module runtime.
"""

import cmath
import math
import time

import numpy as np

import _refs as R
from disperse import (
    BranchId,
    OracleConfig,
    SolverConfig,
    SpeciesParams,
    Statistics,
    derive_scales,
    evolve_mode,
    first_point_seeds,
    omega_degenerate_bohm_gross,
    omega_quantum_langmuir,
    omega_zero_sound,
    solve_at_k,
    sweep,
)
from disperse.dispersion_core import (
    coefficient_C1,
    omega_c1_corrected,
    omega_weak_biquadratic,
    omega_weak_simple,
    residual_quadrature,
    residual_weak,
)
from disperse.quantum_stats import K_B, scaled_erfc, with_bohm_term, zeta_pm


def rel(a, b):
    return abs(a - b) / abs(b)


def converged_root(k, branch, species, scales, tol=1e-10, bohm=True):
    config = SolverConfig(abs_tol=tol)
    for seed in first_point_seeds(k, branch, species, scales, bohm_term=bohm):
        try:
            res = solve_at_k(k, branch, species, scales, seed, config,
                             bohm_term=bohm)
        except Exception:
            continue
        if res.converged:
            return res
    raise AssertionError(f"no converged root for {branch.name} at k = {k:.4e}")


def report(number, label, detail, elapsed, budget=None):
    if budget is not None:
        assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"
    print(f"[criterion {number:02d}] PASS {label}: {detail} ({elapsed:.2f}s)")


def test_criterion_01_small_k_plasmon_limit(electron_degenerate,
                                            electron_degenerate_scales):
    """Every charged branch approaches the plasma frequency at small k with
    the quantum-potential hook off.  The acoustic ZeroSound branch is the one
    exclusion: its small-k limit is (1 + 2/e^2) k v_ch, not a plasmon.  The
    thermal gas is taken at fugacity 0.9, where v_th stays within the window
    the shared evaluation point k v_ch = 1e-3 Omega_p demands."""
    start = time.monotonic()
    dsp, dsc = electron_degenerate, electron_degenerate_scales
    f9 = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2,
                       density=R.N0, temperature=R.T_FERMI_09,
                       statistics=Statistics.FERMI)
    s9 = derive_scales(f9)
    k_deg = 1e-3 * dsc.omega_p / dsc.v_ch
    k_thm = 1e-3 * s9.omega_p / s9.v_ch
    dsc_off, s9_off = with_bohm_term(dsc, False), with_bohm_term(s9, False)

    checks = [
        ("QuantumLangmuir", omega_quantum_langmuir(k_deg, dsc_off), dsc),
        ("C1Corrected", omega_c1_corrected(k_deg, dsc_off), dsc),
        ("DegenerateBohmGross", omega_degenerate_bohm_gross(k_deg, dsc_off), dsc),
        ("ExactDegenerate",
         converged_root(k_deg, BranchId.ExactDegenerate, dsp, dsc, 1e-6,
                        bohm=False).rate.omega, dsc),
        ("ExactQuadrature/degenerate",
         converged_root(k_deg, BranchId.ExactQuadrature, dsp, dsc, 1e-8,
                        bohm=False).rate.omega, dsc),
        ("WeakSimple", omega_weak_simple(k_thm, f9, s9_off), s9),
        ("WeakBiquadratic", omega_weak_biquadratic(k_thm, f9, s9_off), s9),
        ("ExactWeak",
         converged_root(k_thm, BranchId.ExactWeak, f9, s9, 1e-8,
                        bohm=False).rate.omega, s9),
        ("ExactQuadrature/thermal",
         converged_root(k_thm, BranchId.ExactQuadrature, f9, s9, 1e-8,
                        bohm=False).rate.omega, s9),
    ]
    worst = 0.0
    for name, omega, sc in checks:
        err = rel(omega, sc.omega_p)
        assert err < 1e-6, (name, err)
        worst = max(worst, err)
    report(1, "small-k plasmon limit",
           f"9 branches, worst rel {worst:.3e} < 1e-6",
           time.monotonic() - start, budget=1.0)


def test_criterion_02_degenerate_bohm_gross_agreement(electron_degenerate,
                                                      electron_degenerate_scales):
    start = time.monotonic()
    sp, sc = electron_degenerate, electron_degenerate_scales
    off = with_bohm_term(sc, False)
    for k in np.linspace(0.01, 0.2, 9) * R.K_REF:
        closed = omega_degenerate_bohm_gross(float(k), off)
        literal = math.sqrt(sc.omega_p**2 + (0.6 * sc.v_ch**2) * float(k) ** 2)
        assert closed == literal  # the branch IS this formula

    ks = np.linspace(0.004, 0.2, 50) * R.K_REF
    results = sweep(ks, BranchId.ExactDegenerate, sp, sc,
                    SolverConfig(abs_tol=1e-8), bohm_term=False)
    assert all(res.converged for res in results)
    worst = max(rel(res.rate.omega, omega_degenerate_bohm_gross(res.k, off)) for res in results)
    assert worst < 0.01
    report(2, "degenerate Bohm-Gross agreement",
           f"50 points, worst rel {worst:.3e} < 1e-2",
           time.monotonic() - start, budget=10.0)


def test_criterion_03_no_damping_at_full_degeneracy(electron_degenerate,
                                                    electron_degenerate_scales):
    start = time.monotonic()
    ks = np.linspace(0.01, 1.2, 100) * R.K_REF
    results = sweep(ks, BranchId.ExactDegenerate, electron_degenerate,
                    electron_degenerate_scales)
    assert all(res.converged for res in results)
    interior = [res for res in results if not res.region_flag]
    assert len(interior) == 100  # the plasmon stays above the edge velocity
    worst = max(abs(res.rate.eta) / res.rate.omega for res in interior)
    assert worst < 1e-8
    report(3, "no damping at full degeneracy",
           f"100 interior roots, max |eta|/omega {worst:.3e} < 1e-8",
           time.monotonic() - start, budget=30.0)


def test_criterion_04_boson_damping_always_present():
    """Sampled on the wavelength window where the series damping is resolved
    above the exp(-1/y^2) underflow plateau of double precision."""
    start = time.monotonic()
    closest = -1.0
    for temp in (R.T_BOSE_01, R.T_BOSE_05, R.T_BOSE_09):
        boson = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2,
                              density=R.N0, temperature=temp,
                              statistics=Statistics.BOSE)
        sc = derive_scales(boson)
        vth = math.sqrt(sc.v_th_sq)
        for y in np.linspace(0.3, 0.45, 10):
            res = converged_root(float(y) * sc.omega_p / vth,
                                 BranchId.ExactWeak, boson, sc)
            assert res.rate.eta < 0.0, (temp, y)
            closest = max(closest, res.rate.eta / res.rate.omega)
    report(4, "boson damping always present",
           f"30 roots at fugacity 0.1/0.5/0.9, max eta/omega {closest:.3e} < 0",
           time.monotonic() - start, budget=60.0)


def test_criterion_05_zero_sound_window(neutral_degenerate,
                                        neutral_degenerate_scales):
    start = time.monotonic()
    sc = neutral_degenerate_scales
    unit = sc.v_ch / math.sqrt(sc.lambda_quantum)
    ratios = []
    worst_back = 0.0
    for kappa in np.linspace(0.2, 0.4, 11):
        k = float(kappa) * unit
        omega = omega_zero_sound(k, sc)
        ratios.append(omega / (k * sc.v_ch))
        zd = R.printed_degenerate_residual(k * sc.v_ch / omega, 0.0, k, sc)[0]
        worst_back = max(worst_back, abs(zd.real))
    assert all(1.0 < ratio <= 1.3 for ratio in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))  # falls as k -> 0
    assert worst_back < 1e-2

    # the same branch from the full residual, further up in k where the
    # solver resolves it without the closed form's help
    ks = np.linspace(0.45, 0.8, 8) * unit
    results = sweep(ks, BranchId.ExactDegenerate, neutral_degenerate, sc)
    assert all(res.converged for res in results)
    assert all(res.rate.eta == 0.0 for res in results)
    assert all(res.rate.omega > res.k * sc.v_ch for res in results)
    report(5, "zero-sound window",
           f"v_phase/v_ch in ({ratios[0]:.8f}, {ratios[-1]:.8f}], "
           f"back-substitution {worst_back:.3e} < 1e-2",
           time.monotonic() - start, budget=10.0)


def test_criterion_06_oracle_solver_agreement(weak_fermion, weak_fermion_scales,
                                              weak_boson, weak_boson_scales,
                                              electron_degenerate, electron_degenerate_scales):
    start = time.monotonic()
    worst_om = 0.0
    worst_eta = 0.0
    for sp, sc in ((weak_fermion, weak_fermion_scales),
                   (weak_boson, weak_boson_scales)):
        vth = math.sqrt(sc.v_th_sq)
        for y in np.linspace(0.36, 0.40, 5):
            k = float(y) * sc.omega_p / vth
            root = converged_root(k, BranchId.ExactQuadrature, sp, sc)
            run = evolve_mode(k, sp, sc.alpha, OracleConfig(t_end=200.0),
                              omega_guess=root.rate.omega)
            err_om = rel(run.omega_fit, root.rate.omega)
            worst_om = max(worst_om, err_om)
            assert err_om < 1e-6
            assert root.rate.eta < 0.0  # every mode is damped
            err_eta = rel(run.eta_fit, root.rate.eta)
            worst_eta = max(worst_eta, err_eta)
            assert err_eta < 1e-4
    # the charged T = 0 gas at k v_F/Omega_p = x, default config: undamped
    worst_t0_om = 0.0
    worst_t0_eta = 0.0
    sp, sc = electron_degenerate, electron_degenerate_scales
    for x in (0.3, 0.6, 1.0, 1.5, 2.0):
        k = x * sc.omega_p / sc.v_ch
        root = converged_root(k, BranchId.ExactDegenerate, sp, sc)
        assert root.rate.eta == 0.0
        run = evolve_mode(k, sp, None)
        worst_t0_om = max(worst_t0_om, rel(run.omega_fit, root.rate.omega))
        worst_t0_eta = max(worst_t0_eta, abs(run.eta_fit) / root.rate.omega)
    assert worst_t0_om <= 1e-8
    assert worst_t0_eta <= 1e-8
    report(6, "oracle vs solver",
           f"10 thermal modes, worst rel omega {worst_om:.3e} < 1e-6, "
           f"worst rel eta {worst_eta:.3e} < 1e-4; 5 T = 0 modes, worst rel "
           f"omega {worst_t0_om:.3e}, worst |eta|/omega {worst_t0_eta:.3e}, both <= 1e-8",
           time.monotonic() - start, budget=60.0)


def test_criterion_07_dual_path_residual_equivalence(
    electron_degenerate, electron_degenerate_scales,
    weak_fermion, weak_fermion_scales,
):
    """The package's degenerate residual (residual_quadrature at alpha = None)
    vs the printed form (the reference in _refs) at 50 random complex rates, and
    quadrature vs fugacity series at 50 random rates chosen where the
    occupation-pole term is below 1e-12 relative (all three residuals share
    the orientation 1 - response, so the comparison is rw - rq against
    zero)."""
    start = time.monotonic()
    dsp, dsc = electron_degenerate, electron_degenerate_scales
    rng = np.random.default_rng(20260816)
    worst_deg = 0.0
    count = 0
    while count < 50:
        r = float(rng.uniform(0.05, 2.2))
        if abs(r - 1.0) < 0.05:
            continue
        eps = float(rng.uniform(-0.4, 0.4))
        if abs(eps) < 0.02:
            eps = math.copysign(0.02, eps or 1.0)
        k = float(rng.uniform(0.3, 1.5)) * R.K_REF
        omega = k * dsc.v_ch / r
        zq = residual_quadrature(k, complex(eps * omega, omega), dsp, None, dsc)[0]
        zd = R.printed_degenerate_residual(r, eps, k, dsc)[0]
        worst_deg = max(worst_deg, abs(zq - zd) / abs(zd))
        count += 1
    assert worst_deg < 1e-6

    wsp, wsc = weak_fermion, weak_fermion_scales
    rng = np.random.default_rng(20260816)
    beta = wsp.mass / (2.0 * K_B * wsp.temperature)
    vth = math.sqrt(wsc.v_th_sq)
    worst_weak = 0.0
    for _ in range(50):
        mag = float(rng.uniform(5.5, 9.0))
        delta = float(rng.uniform(-0.25, 0.25))
        theta = mag * cmath.exp(1j * (math.pi / 2.0 - delta))
        k = float(rng.uniform(0.2, 0.5)) * wsc.omega_p / vth
        s = theta * k / math.sqrt(beta)
        rw = residual_weak(k, s, wsp, wsc.alpha, wsc)[0]
        zq = residual_quadrature(k, s, wsp, wsc.alpha, wsc)[0]
        worst_weak = max(worst_weak, abs(rw - zq) / max(abs(rw), abs(zq)))
    assert worst_weak < 1e-6
    report(7, "dual-path residual equivalence",
           f"degenerate worst {worst_deg:.3e}, series worst {worst_weak:.3e}, "
           "both < 1e-6",
           time.monotonic() - start, budget=30.0)


def test_criterion_08_special_function_accuracy():
    start = time.monotonic()
    import mpmath as mp

    mp.mp.dps = 40
    rng = np.random.default_rng(8)
    points = []
    while len(points) < 200:
        x = float(rng.uniform(-26.0, 26.0))
        y = float(rng.uniform(-42.0, 42.0))
        # keep |z| <= 50 and exp(z^2) representable through the reflection
        if x * x + y * y > 2500.0 or x * x - y * y > 600.0:
            continue
        points.append(complex(x, y))
    worst = 0.0
    for z in points:
        got = scaled_erfc(z)
        want = complex(mp.sqrt(mp.pi) * mp.mpc(z) * mp.exp(mp.mpc(z) ** 2)
                       * mp.erfc(mp.mpc(z)))
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-10

    # large-argument expansion with its remainder bound on the real axis
    worst_margin = 0.0
    for x in np.linspace(5.0, 50.0, 91):
        expansion = 1.0 - 1.0 / (2.0 * x * x) + 3.0 / (4.0 * x**4)
        err = abs(scaled_erfc(float(x)).real - expansion)
        worst_margin = max(worst_margin, err * x**6 / 8.0)
    assert worst_margin < 1.0

    # independent direct summation of the boson series at alpha = 1
    j = np.arange(1, 4_000_001, dtype=float)
    zeta_direct = float((j ** -1.5).sum()) + 2.0 / math.sqrt(4_000_000.5)
    assert abs(zeta_pm(1.5, 1.0, Statistics.BOSE) - zeta_direct) < 1e-9
    assert abs(zeta_pm(1.0, 1.0, Statistics.FERMI) - math.log(2.0)) < 1e-12
    report(8, "special-function accuracy",
           f"200 points worst rel {worst:.3e} < 1e-10, "
           f"remainder margin {worst_margin:.3f} < 1",
           time.monotonic() - start)


def test_criterion_09_thermal_chain_consistency(weak_fermion,
                                                weak_fermion_scales):
    start = time.monotonic()
    sp, sc = weak_fermion, weak_fermion_scales
    k = 8.3e8
    for _ in range(60):  # fixed point of k^2 v_th^2 = 0.05 C1(k)
        k = math.sqrt(0.05 * coefficient_C1(k, sc) / sc.v_th_sq)
    x = k * k * sc.v_th_sq / coefficient_C1(k, sc)
    assert abs(x - 0.05) < 1e-14

    exact = converged_root(k, BranchId.ExactWeak, sp, sc, tol=1e-8).rate.omega
    om_bi = omega_weak_biquadratic(k, sp, sc)
    om_simple = omega_weak_simple(k, sp, sc)
    pairs = [(exact, om_bi), (exact, om_simple), (om_bi, om_simple)]
    worst = max(rel(a, b) for a, b in pairs)
    assert worst < 0.03

    gap = rel(om_bi, om_simple)
    bound = x * x * coefficient_C1(k, sc) / om_simple**2 + 1e-12
    assert gap <= bound
    report(9, "thermal chain consistency",
           f"pairwise worst {worst:.3e} < 3e-2, expansion gap {gap:.3e} "
           f"<= bound {bound:.3e}",
           time.monotonic() - start)


def test_criterion_10_matched_speed_structural_identity(
    electron_degenerate_scales, weak_fermion
):
    start = time.monotonic()
    sc = electron_degenerate_scales
    from disperse.quantum_stats import DerivedScales

    matched = DerivedScales(omega_p=sc.omega_p, v_ch=sc.v_ch, alpha=0.5,
                            v_th_sq=0.6 * sc.v_ch**2,
                            lambda_quantum=sc.lambda_quantum)
    for k in np.linspace(0.02, 2.5, 100) * R.K_REF:
        left = omega_degenerate_bohm_gross(float(k), sc)
        right = omega_weak_simple(float(k), weak_fermion, matched)
        assert left == right
    report(10, "matched-speed structural identity",
           "bit-identical on a 100-point grid", time.monotonic() - start)
