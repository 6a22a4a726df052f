"""Dual-path check for the weakly degenerate gas: root solver vs kinetics.

For fermion and boson gases at the same fugacity, solves the quadrature
residual for the least-damped root and independently integrates the
linearized kinetic system, then prints both (omega, eta) side by side.
The time-domain path shares no code with the residual evaluation, so
agreement here exercises the whole stack.
"""
import argparse
import math

from disperse import (
    OracleConfig,
    SpeciesParams,
    Statistics,
    derive_scales,
    dominant_root,
    evolve_mode,
)

M_E = 9.1093837015e-31
Q_E = 1.602176634e-19

# temperatures that put an n0 = 1e28 electron-mass gas at fugacity 0.2
T_FERMI = 49640.348706479899
T_BOSE = 45138.866399788338


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--periods", type=float, default=200.0,
                        help="oracle integration length in oscillation periods")
    args = parser.parse_args()

    for label, stats, temp in (("fermions", Statistics.FERMI, T_FERMI),
                               ("bosons", Statistics.BOSE, T_BOSE)):
        gas = SpeciesParams(mass=M_E, charge=-Q_E, spin_degeneracy=2,
                            density=1e28, temperature=temp, statistics=stats)
        scales = derive_scales(gas)
        v_th = math.sqrt(scales.v_th_sq)
        print(f"\n## {label}: alpha = {scales.alpha:.4f}, v_th = {v_th:.4e} m/s")
        print("k*vth/Op   omega_root/Op  omega_kin/Op   eta_root/Op    eta_kin/Op")
        for frac in (0.36, 0.38, 0.40):
            k = frac * scales.omega_p / v_th
            res = dominant_root(k, gas, scales)
            run = evolve_mode(k, gas, scales.alpha, OracleConfig(t_end=args.periods))
            print(f"{frac:8.2f}  {res.rate.omega / scales.omega_p:13.9f}"
                  f"  {run.omega_fit / scales.omega_p:13.9f}"
                  f"  {res.rate.eta / scales.omega_p:+.6e}"
                  f"  {run.eta_fit / scales.omega_p:+.6e}")


if __name__ == "__main__":
    main()
