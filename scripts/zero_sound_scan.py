"""Neutral degenerate fermions: the sound-like branch above the edge velocity.

Scans the neutral gas where the only restoring force is quantum pressure and
prints the phase velocity of the exact root against the closed-form branch.
The phase velocity stays pinned just above the edge velocity; the k -> 0
limit of the closed form is v_F (1 + 2 e^-2).  Exits with status 1 when an
exact point does not converge or is not undamped (eta == +0.0).
"""
import argparse
import math
import sys

import numpy as np

from disperse import (
    BranchId,
    SpeciesParams,
    Statistics,
    derive_scales,
    omega_zero_sound,
    sweep,
)

M_E = 9.1093837015e-31
HBAR = 1.054571817e-34


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    gas = SpeciesParams(mass=M_E, charge=0.0, spin_degeneracy=2,
                        density=1e28, temperature=0.0, statistics=Statistics.FERMI)
    scales = derive_scales(gas)
    v_f = scales.v_ch
    print(f"# neutral gas, v_F = {v_f:.6e} m/s, limit v_phi/v_F -> {1 + 2 * math.exp(-2):.6f}")

    # kappa = hbar k / (2 m v_F) is the natural wavenumber here
    kappa = np.linspace(0.21, 0.8, 15)
    k_grid = kappa * 2.0 * M_E * v_f / HBAR
    exact = sweep(k_grid, BranchId.ExactDegenerate, gas, scales)

    print("kappa    v_phi/v_F (exact)  v_phi/v_F (closed)  iters")
    for kap, res in zip(kappa, exact):
        closed = omega_zero_sound(res.k, scales) / (res.k * v_f)
        print(f"{kap:6.3f}  {res.rate.omega / (res.k * v_f):17.10f}"
              f"  {closed:18.10f}  {res.iterations}")

    bad = [f"{kap:.3f}" for kap, res in zip(kappa, exact)
           if not (res.converged and res.rate.eta == 0.0 and math.copysign(1.0, res.rate.eta) > 0)]
    if bad:
        print(f"exact root not converged or not undamped at kappa = {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
