"""Frozen reference values shared across the suite.

Every number here was produced by an independent route: 40-digit arithmetic
for the special functions, closed-form limits for the zeta family, bisection
at tightened tolerance for the reference temperatures, and rehearsal runs of
the iterative solvers at settings far stricter than the ones under test.
Tests compare against these literals instead of re-deriving them, so a
regression in the shipping code cannot silently move the target.
"""

M_E = 9.1093837015e-31   # kg
Q_E = 1.602176634e-19    # C
K_B = 1.380649e-23       # J/K
HBAR = 1.054571817e-34   # J s
PLANCK_H = 6.62607015e-34
EPS0 = 8.8541878128e-12

N0 = 1e28                # m^-3, the electron-gas density used throughout

# plasma frequency and ground-state velocity scale at n0 = 1e28, g = 2
OMEGA_P = 5641460231180627.6
V_F = 771603.45833129214

# restoring coefficient and its quantum part at k = omega_p / v_F
K_REF = OMEGA_P / V_F
C1_AT_KREF = 4.1400302322344978e31
QUANTUM_TERM_AT_KREF = 9.574228782352398e30

# zeta-family endpoints
ZETA_32 = 2.6123753486854883          # boson 3/2 sum at alpha = 1
ZETA_52 = 1.3414872572509172          # boson 5/2 sum at alpha = 1
FERMI_32_AT_1 = 0.76514702462540795   # alternating 3/2 sum at alpha = 1
LN_2 = 0.69314718055994531

# polylog spot values at alpha = 0.2 (40-digit arithmetic, rounded once)
FERMI_Z32_02 = 0.18722232631618235
FERMI_Z52_02 = 0.19339721740529224
BOSE_Z32_02 = 0.21591553981455835
BOSE_Z52_02 = 0.20764083352728853

# temperatures that put the 3/2 occupation sum at the stated fugacity for
# the n0 = 1e28 gas, inverted by bisection to 1e-12 and frozen
T_FERMI_02 = 49640.348706479899
T_BOSE_02 = 45138.866399788338
T_FERMI_09 = 20538.254704609489
T_BOSE_09 = 11804.807409179758
T_BOSE_01 = 73582.018855082497
T_BOSE_05 = 22227.745369362777
T_CLASSICAL = 1.63e8     # fugacity ~ 1e-6: Maxwell-Boltzmann territory
# near condensation, from the closed-form inversion
# T = (h^2 / (2 pi m k_B)) (n0 / (g Li_3/2(alpha)))^(2/3) in 40-digit arithmetic
T_BOSE_099 = 9401.0786203965646
T_BOSE_0999 = 8815.5372118998176

# mean-square thermal speeds at fugacity 0.2 (both statistics)
VTH2_FERMI_02 = 2331540422472.241
VTH2_BOSE_02 = 1973763225815.0089

# scaled complementary error function G(z) = sqrt(pi) z exp(z^2) erfc(z),
# reference values from 40-digit arithmetic
G_HALF = 0.54564136076504704
G_TEN = 0.99507318782446975
G_COMPLEX = {
    1.0 + 1.0j: 0.90920349899782231 + 0.17108658129968914j,
    5.0j: 1.0213407442427684 + 1.2307869792307557e-10j,
    -3.0 + 4.0j: 0.98868509884100368 - 0.023049202291767925j,
    5.9 + 0.3j: 0.98631188389178748 + 0.0013406424328545237j,
    6.1 - 0.4j: 0.98722302698518344 - 0.001620425775823928j,
    -2.0 - 7.0j: 1.0081261007093831 + 0.0052367236605819437j,
    20.0 + 30.0j: 1.0001476157145057 + 0.00035534437687400016j,
}

# converged roots at k = omega_p / v_F for the fully degenerate charged gas,
# frozen from runs at abs_tol = 1e-13
DEG_ROOT_OMEGA = 7877971635950275.0
QUAD_ROOT_OMEGA = 7877971635946057.0

# residual_quadrature for the Bose gas at T_BOSE_0999, evaluated at
# alpha = 0.999 exactly, keyed by (k, s).  References integrate f'(w)/(w - p)
# over the whole real line in 45-digit arithmetic (mpmath tanh-sinh, split at
# the occupation-pole scale and at the velocity pole), with the residue
# 2 pi i f'(p) added for eta < 0; 35 digits agree to 1e-35.
BOSE_0999_RESIDUALS = {
    (4567485627.360553, -56414602311806.26 + 6036362447363270j):
        -0.1023151296777266750869949 - 0.005812926617556878537241626j,
    (3653988501.888442, 112829204623612.52 + 5923533242739658j):
        -0.02443416473191578942575087 - 0.04676861328031013115827075j,
    (5480982752.832664, -282073011559031.3 + 6205606254298689j):
        -0.2042000831021031456709201 + 0.02265943373116749203680665j,
}
