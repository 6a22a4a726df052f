"""Frozen reference values shared across the suite.

Every number here was produced by an independent route: 40-digit arithmetic
for the special functions, closed-form limits for the zeta family, bisection
at tightened tolerance for the reference temperatures, and rehearsal runs of
the iterative solvers at settings far stricter than the ones under test.
Tests compare against these literals instead of re-deriving them, so a
regression in the shipping code cannot silently move the target.  One
reference is code: the fully degenerate residual in the paper's printed
variables, written apart from the package's s-coded closed form.
"""

import math

from disperse.dispersion_core import _FAR_POLE, _far_pole_series, _log_ratio_slope, coefficient_C1
from disperse.errors import SingularInput

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
# Bose condensation temperature of the n0 = 1e28, g = 2 electron-mass gas,
# (h^2 / (2 pi m k_B)) (n0 / (g zeta(3/2)))^(2/3) in 40-digit arithmetic
T_BOSE_C = 8564.7797087110571441
# just below the fugacity (~0.944) where the n = 0 occupation pole reaches
# the strip right of dominant_root's box; T_BOSE_09 scaled by
# (Li_3/2(0.9) / Li_3/2(alpha))^(2/3)
T_BOSE_092 = 11361.69805853946
T_BOSE_094 = 10896.107140447819

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

# residual_quadrature nearer condensation: the same gas and the same
# construction in 40-digit arithmetic (tanh-sinh over [-2, 2] split at the
# occupation-pole scale a = sqrt(-ln alpha / (beta W^2)), a/10 and the
# velocity pole; on the real-s axis the path dips 0.02 W below the pole, the
# continuation from the growing side), evaluated at alpha = 1 - 1e-8 and
# 1 - 1e-12 exactly and keyed by (alpha, k, s)
BOSE_NEAR_ONE_RESIDUALS = {
    (0.99999999, 2435992334.5922956, -56414602311806.26 + 6036362447363270j):
        0.0509470880248433403281152 + 0.01844990639579046896844322j,
    (0.99999999, 3653988501.888443, 112829204623612.52 + 5923533242739658j):
        -0.06530806413176669361497967 - 0.0483368799088423202631247j,
    (0.99999999, 5480982752.832665, -282073011559031.3 + 6205606254298689j):
        -0.2443139855979242341459609 + 0.02624233228254194357404248j,
    (0.99999999, 4262986585.536517, 6092777049675076j):
        -0.07010516687184294972392034 - 0.01272774009987808232829494j,
    (0.999999999999, 2435992334.5922956, -56414602311806.26 + 6036362447363270j):
        0.05082414233731260134648859 + 0.01845220465950152634068365j,
    (0.999999999999, 3653988501.888443, 112829204623612.52 + 5923533242739658j):
        -0.06543754780668694315456133 - 0.04834181451812234092501605j,
    (0.999999999999, 5480982752.832665, -282073011559031.3 + 6205606254298689j):
        -0.2444401517162802317037085 + 0.02625382497023329449161387j,
    (0.999999999999, 4262986585.536517, 6092777049675076j):
        -0.07022961530947688593338243 - 0.0127277402272037256267743j,
}

# residual_quadrature for the Bose gas at T_BOSE_09 and k = 0.3 Omega_p / v_th,
# by the construction above at the gas's own fugacity, keyed by s / Omega_p
BOSE_09_RESIDUALS = {
    1.1j: 0.09377393508370838964691344 - 0.00005838534005113925382291428j,
    -0.01 + 1.05j: -0.004598304881392837421012789 + 0.02122785574363371888581916j,
    0.05 + 1.2j: 0.2552269186083052843593778 - 0.06718122794272730674874167j,
    -0.2 + 1.2j: 0.3213685885022179390443438 + 0.2514608194374900299400943j,
}

# residual_weak's response sum for k = 0.3 Omega_p / v_th and theta =
# sqrt(beta) s / k at |theta|^2 = 50, 25, 70/J and 30/J, just growing and
# just damped: the J terms of its block, c_j (G(sqrt(j) theta) - 1) on
# Re theta >= 0 (on -theta where Re theta < 0) with G from mpmath's erfc,
# plus the occupation-pole term (twice where Re theta < 0), in 40-digit
# arithmetic from the same doubles, rounded once.  Each entry is (k, s, the
# number of terms with sqrt(j) |theta| <= 6, the sum).
WEAK_SERIES_SUMS = {
    (T_FERMI_02, "FERMI"): [
        (1108386713.2201352, (1503967002227887+9495673938337602j), 0, (0.0018293257128173905+0.0006152567443996716j)),
        (1108386713.2201352, (-1503967002227888+9495673938337600j), 0, (0.0018293257128173908-0.0006152567443996721j)),
        (1108386713.2201352, (1063465265956142.2+6714455433734888j), 1, (0.003763756974630303+0.0013165287550588134j)),
        (1108386713.2201352, (-1063465265956143+6714455433734887j), 1, (0.0037637574563543575-0.0013165286135924704j)),
        (1108386713.2201352, (379394460190210.75+2395402347685262.5j), 11, (-0.015743059523498054+0.07351871774665626j)),
        (1108386713.2201352, (-379394460190211+2395402347685262.5j), 11, (0.1178487779567475+0.05160308109967205j)),
        (1108386713.2201352, (248371976009792.97+1568158939734663.5j), 22, (-0.039743654500876704+0.2917010112858477j)),
        (1108386713.2201352, (-248371976009793.16+1568158939734663.2j), 22, (0.11584127400128907+0.3358888964217327j)),
    ],
    (T_BOSE_02, "BOSE"): [
        (1204662133.1514378, (1558727394263685+9841417446497818j), 0, (0.002105735100380113+0.0007065251355162345j)),
        (1204662133.1514378, (-1558727394263685.8+9841417446497818j), 0, (0.002105735100380113-0.0007065251355162349j)),
        (1204662133.1514378, (1102186710505088.8+6958933012906205j), 1, (0.004323881003058479+0.001504660686027651j)),
        (1204662133.1514378, (-1102186710505089.4+6958933012906204j), 1, (0.0043238814847825335-0.0015046605445613085j)),
        (1204662133.1514378, (393208453014155.6+2482620465801155j), 11, (-0.011708205002732923+0.07595831685777389j)),
        (1204662133.1514378, (-393208453014155.8+2482620465801154.5j), 11, (0.12535276298434123+0.048319369965443455j)),
        (1204662133.1514378, (257415357119122.12+1625256600911474j), 22, (-0.046207483283467125+0.32278975541738364j)),
        (1204662133.1514378, (-257415357119122.3+1625256600911473.8j), 22, (0.1566155505146259+0.3622770799430372j)),
    ],
    (T_FERMI_09, "FERMI"): [
        (1652830774.4625897, (1442579456171224.5+9108088226440164j), 0, (0.006890081578668747+0.0023243767193837144j)),
        (1652830774.4625897, (-1442579456171225.5+9108088226440164j), 0, (0.006890081578668746-0.0023243767193837158j)),
        (1652830774.4625897, (1020057715859074.6+6440390948561196j), 1, (0.014211641104372999+0.005003847146236672j)),
        (1652830774.4625897, (-1020057715859075.4+6440390948561195j), 1, (0.014211643272131239-0.005003846509638125j)),
        (1652830774.4625897, (97416960082793.31+615066479277774.2j), 157, (-0.2899390189749434+1.014006552979687j)),
        (1652830774.4625897, (-97416960082793.38+615066479277774.2j), 157, (-0.5374887916136805+1.106400655613885j)),
        (1652830774.4625897, (63774370507413.13+402655528388626.94j), 307, (-0.3937310879859032+0.7204885903896006j)),
        (1652830774.4625897, (-63774370507413.18+402655528388626.94j), 307, (-0.6035081494196655+0.7628683169916395j)),
    ],
    (T_BOSE_09, "BOSE"): [
        (2750260805.717544, (1819838789268436.5+1.1490009912207982e+16j), 0, (0.01563975513673262+0.005202871005400971j)),
        (2750260805.717544, (-1819838789268437.8+1.1490009912207982e+16j), 0, (0.015639755136732617-0.0052028710054009735j)),
        (2750260805.717544, (1286820348558027.5+8124663924822912j), 1, (0.03188907288099109+0.010896516419109081j)),
        (2750260805.717544, (-1286820348558028.8+8124663924822911j), 1, (0.03188907504874934-0.010896515782510547j)),
        (2750260805.717544, (118713193067138.83+749525602539558.4j), 169, (-1.0162048220475444+6.276369561845138j)),
        (2750260805.717544, (-118713193067138.92+749525602539558.2j), 169, (0.15385754140616498+6.988446977759782j)),
        (2750260805.717544, (77716027602867.22+490679686992130.2j), 329, (-1.552232658935314+7.083329033267451j)),
        (2750260805.717544, (-77716027602867.27+490679686992130.1j), 329, (-1.5054596714487205+7.920809001646388j)),
    ],
    (T_CLASSICAL, "FERMI"): [
        (19658988.762137175, (1528567288855484.2+9650994035294034j), 0, (9.71371575507497e-09+3.263386767759098e-09j)),
        (19658988.762137175, (-1528567288855485.2+9650994035294034j), 0, (9.71371575507497e-09-3.2633867677590996e-09j)),
        (19658988.762137175, (1080860295449649+6824283327547335j), 1, (1.996721021166092e-08+6.967645661904204e-09j)),
        (19658988.762137175, (-1080860295449649.8+6824283327547333j), 1, (1.9967212608268654e-08-6.967644958100174e-09j)),
        (19658988.762137175, (639445574226474.6+4037300462824656j), 4, (6.185726259370223e-08+2.537682087800403e-08j)),
        (19658988.762137175, (-639445574226475.1+4037300462824655.5j), 4, (6.61221560892911e-08-3.1681251405411483e-08j)),
        (19658988.762137175, (418615392385331.94+2643033567739176j), 8, (-1.9586291205365237e-08+2.2892829425827276e-07j)),
        (19658988.762137175, (-418615392385332.2+2643033567739175.5j), 8, (4.681639332062832e-07+8.305935120042773e-08j)),
    ],
    (T_BOSE_099, "BOSE"): [
        (3399038121.3244286, (2007125195039620.2+1.2672489740323838e+16j), 0, (0.0219346954534287+0.0072668048493374085j)),
        (3399038121.3244286, (-2007125195039621.5+1.2672489740323836e+16j), 0, (0.021934695453428705-0.0072668048493374155j)),
        (3399038121.3244286, (1419251836102887.2+8960803429899938j), 1, (0.044572207687378816+0.015097582892087392j)),
        (3399038121.3244286, (-1419251836102888.2+8960803429899936j), 1, (0.04457221007191289-0.015097582191829004j)),
        (3399038121.3244286, (39217781761892.34+247611329001342.94j), 1885, (-5.893093016432919+23.8437392834274j)),
        (3399038121.3244286, (-39217781761892.37+247611329001342.94j), 1885, (-3.2772689176952188+26.363575760515044j)),
        (3399038121.3244286, (25674064787447.18+162099665439609.78j), 3667, (-7.9176580476049025+25.081357347158775j)),
        (3399038121.3244286, (-25674064787447.2+162099665439609.78j), 3667, (-8.710083671446286+27.84934500069512j)),
    ],
}


def printed_degenerate_residual(r, epsilon, k, scales):
    """Fully degenerate residual in the scaled variables r = k v_F/omega and
    epsilon = eta/omega, and its derivative in s.

    The printed form splits into a real part and an imaginary part with the
    common prefactor pref = 3 C1 / (k^2 v_F^2 r) divided out; the value
    returned is real_part - i pref imag_part, holomorphic in s.  Its
    imaginary part is identically zero for epsilon = 0 inside r^2 < 1 (all
    three terms of imag_part vanish there).  The value is
    1 - (C1/(k^2 v_F^2)) I(p) with p = (-1 + i epsilon)/r and
    I = -3 - (3/2) p log((1 - p)/(-1 - p)) - 3 pi i p step, the pole p
    scaled by v_F; for |p| >= 10, where -lg/4 - r cancels to ~r^3/3, I comes
    from the package's 1/p series.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if r == 1.0 and epsilon == 0.0:
        raise SingularInput("phase velocity exactly at the edge velocity with no damping")
    c1 = coefficient_C1(k, scales)
    v_f = scales.v_ch
    scale = c1 / (k * k * v_f * v_f)
    p_hat = complex(-1.0, epsilon) / r
    step = 1.0 if r * r + epsilon * epsilon >= 1.0 else 0.0
    if abs(p_hat) >= _FAR_POLE:
        integral, slope = _far_pole_series(p_hat)
        if step:
            integral -= 3.0j * math.pi * p_hat
            slope -= 3.0j * math.pi
        return 1.0 - scale * integral, -scale * slope * (1j / (k * v_f))
    # two-argument arctangent of (2 r eps) over (1 + eps^2 - r^2): continuous
    # across the branch switch of arctan at r^2 + eps^2 = 1, and equal to the
    # principal log form of the s-coded residual
    big_a = math.atan2(2.0 * r * epsilon, 1.0 + epsilon * epsilon - r * r)
    lg = math.log(((1.0 - r) ** 2 + epsilon * epsilon) / ((1.0 + r) ** 2 + epsilon * epsilon))
    pref = 3.0 * c1 / (k * k * v_f * v_f * r)
    real_part = 1.0 - pref * (0.5 * epsilon * big_a - 0.25 * lg - r + math.pi * epsilon * step)
    imag_part = 0.5 * big_a + 0.25 * epsilon * lg + math.pi * step
    # dI/dp = -(3/2) log + 3 p/(1 - p^2) - 3 pi i step, the log being -lg/2 + i A
    slope = -1.5 * complex(-0.5 * lg, big_a) - 1.5 * p_hat * _log_ratio_slope(p_hat) - 3.0j * math.pi * step
    return complex(real_part, -pref * imag_part), -scale * slope * (1j / (k * v_f))


# printed_degenerate_residual and residual_quadrature (None: not frozen) for
# the charged T = 0 gas at k = K_REF, keyed by (r, epsilon), bit for bit
FROZEN_DEGENERATE = [
    (0.3, 0.0, (0.8761661593276185-0j), None),
    (0.8, 0.0, (-0.4566640241324742-0j), (-0.45666402413247553+0j)),
    (1.3, -0.1, (2.449224552033871-5.56151039586188j), (2.4492245520338716-5.5615103958618795j)),
]
