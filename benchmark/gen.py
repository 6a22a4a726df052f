"""Seeded inputs for the three workloads.

A workload's inputs are a list of CYCLES[workload] cycles.  A run goes
through all of them in order, then wraps round after the last until its time
is up.  So the inputs a run checks, and with them its `attempted` and
`failed` counts, depend on the seed alone and never on the speed of the
machine; a faster machine only repeats more of them.  CYCLES is set so that
one pass over the cycles fits well inside a 20 s run on a 2-vCPU sandbox:
a thermal_roots cycle takes ~1.5 s there, a degenerate_run cycle ~0.07 s,
and one oracle_compare cycle (three compare calls) ~55 s.

Points are stratified: a window split into n equal strata gets one point per
stratum in every cycle.  Within its stratum the point of cycle c sits at
frac(u + c * phi), phi the golden ratio and u drawn from the seed, so the
cycles of one run spread evenly over every stratum whatever the seed.  The
work in a run and the share of points on each side of a regime boundary
(the scalar Newton path below y = 0.25, the damping threshold near
y = 0.29) then barely move with the seed, which keeps the figures of
different seeds comparable.

The inputs here are dimensionless (y = k v_th / Omega_p, x = k v_F / Omega_p,
kappa = k sqrt(lambda_q) / v_F); the workloads turn them into k with the
species' derived scales.  Nothing here imports the package, so the inputs of a
seed are the same bytes whatever the program under test does.
"""

from __future__ import annotations

import hashlib
import json
import random

CYCLES = {"thermal_roots": 8, "degenerate_run": 64, "oracle_compare": 1}

ELECTRON_MASS = 9.1093837015e-31
ELEMENTARY_CHARGE = 1.602176634e-19
DENSITY = 1e28

# Temperatures that put the 3/2 occupation sum of the n0 = 1e28 electron gas
# at the named fugacity, frozen from the bisection in the test suite's
# reference table; the classical gas sits at fugacity ~1e-6.
GASES = {
    "fermi_0.2": {"statistics": "fermi", "temperature": 49640.348706479899, "charge": -ELEMENTARY_CHARGE},
    "bose_0.2": {"statistics": "bose", "temperature": 45138.866399788338, "charge": -ELEMENTARY_CHARGE},
    "fermi_0.9": {"statistics": "fermi", "temperature": 20538.254704609489, "charge": -ELEMENTARY_CHARGE},
    "bose_0.9": {"statistics": "bose", "temperature": 11804.807409179758, "charge": -ELEMENTARY_CHARGE},
    "fermi_classical": {"statistics": "fermi", "temperature": 1.63e8, "charge": -ELEMENTARY_CHARGE},
    "degenerate_charged": {"statistics": "fermi", "temperature": 0.0, "charge": -ELEMENTARY_CHARGE},
    "degenerate_neutral": {"statistics": "fermi", "temperature": 0.0, "charge": 0.0},
}
THERMAL_GASES = ["fermi_0.2", "bose_0.2", "fermi_0.9", "bose_0.9", "fermi_classical"]

# thermal_roots
SWEEP_Y = (0.1, 0.45)
SWEEP_POINTS = 4
DOMINANT_Y = (0.25, 0.45)
# dominant_root costs ~4x more at fugacity 0.9; fewer calls there keep the
# median inside the cheaper gases' bulk and the tail inside the dearer ones
DOMINANT_PER_GAS = {"fermi_0.2": 2, "bose_0.2": 2, "fermi_0.9": 1, "bose_0.9": 1, "fermi_classical": 2}

# degenerate_run; the neutral window starts at 0.45, where the README says
# the exact residual resolves the sound root
CHARGED_X_MIN = (0.01, 0.03)
CHARGED_X_MAX = (2.4, 2.5)
CHARGED_POINTS = 96
CHARGED_BRANCHES = ["ExactDegenerate", "ExactQuadrature", "QuantumLangmuir",
                    "C1Corrected", "DegenerateBohmGross", "ZeroSound"]
NEUTRAL_KAPPA_MIN = (0.45, 0.5)
NEUTRAL_KAPPA_MAX = (0.75, 0.8)
NEUTRAL_POINTS = 48
NEUTRAL_BRANCHES = ["ExactDegenerate", "ZeroSound"]
# dominant_root on the charged gas only: the neutral gas's calls cost 2-8x
# more, by kappa, and a tail drawn from a few of them jumps from run to run
DEGENERATE_DOMINANT = 2

# oracle_compare: criterion 06's window for the thermal gases; below
# x = 0.9 the default v_max misses the degenerate resonance
ORACLE_Y_MIN = (0.36, 0.37)
ORACLE_Y_MAX = (0.39, 0.40)
ORACLE_X_MIN = (0.9, 0.95)
ORACLE_X_MAX = (1.15, 1.2)
ORACLE_POINTS = 4
ORACLE_SUBSAMPLE = 3          # modes at the first and last grid point
ORACLE_T_END = 200.0
ORACLE_N_V = 4096
# dominant_root on the fermions only: the bosons' calls cost ~2/3 as much,
# and a median between two groups of costs would jump between them
ORACLE_DOMINANT = 40


_PHI = (1.0 + 5.0**0.5) / 2.0


class _Strata:
    """Stratified points of one window, moving along a golden-ratio
    sequence from cycle to cycle."""

    def __init__(self, rng: random.Random, n: int):
        self.phase = [rng.random() for _ in range(n)]

    def points(self, cycle: int, lo: float, hi: float) -> list[float]:
        width = (hi - lo) / len(self.phase)
        return [lo + (i + (u + cycle * _PHI) % 1.0) * width for i, u in enumerate(self.phase)]


def _thermal(rng: random.Random):
    strata = {gas: (_Strata(rng, SWEEP_POINTS), _Strata(rng, DOMINANT_PER_GAS[gas])) for gas in THERMAL_GASES}

    def cycle(c: int) -> dict:
        return {"gases": [{"gas": gas, "sweep_y": sweep.points(c, *SWEEP_Y),
                           "dominant_y": dominant.points(c, *DOMINANT_Y)}
                          for gas, (sweep, dominant) in strata.items()]}

    return cycle


def _degenerate(rng: random.Random):
    strata = _Strata(rng, DEGENERATE_DOMINANT)

    def cycle(c: int) -> dict:
        runs = [
            {"gas": "degenerate_charged", "units": "reduced", "lo": rng.uniform(*CHARGED_X_MIN),
             "hi": rng.uniform(*CHARGED_X_MAX), "n_points": CHARGED_POINTS, "branches": CHARGED_BRANCHES},
            {"gas": "degenerate_neutral", "units": "kappa", "lo": rng.uniform(*NEUTRAL_KAPPA_MIN),
             "hi": rng.uniform(*NEUTRAL_KAPPA_MAX), "n_points": NEUTRAL_POINTS, "branches": NEUTRAL_BRANCHES},
        ]
        charged = runs[0]
        dominant = [{"gas": charged["gas"], "units": charged["units"], "x": x}
                    for x in strata.points(c, charged["lo"], charged["hi"])]
        return {"runs": runs, "dominant": dominant}

    return cycle


def _oracle(rng: random.Random):
    strata = _Strata(rng, ORACLE_DOMINANT)
    oracle = {"n_v": ORACLE_N_V, "t_end": ORACLE_T_END, "subsample": ORACLE_SUBSAMPLE}

    def cycle(c: int) -> dict:
        runs = [{"gas": gas, "units": "y", "lo": rng.uniform(*ORACLE_Y_MIN), "hi": rng.uniform(*ORACLE_Y_MAX),
                 "n_points": ORACLE_POINTS, "branches": ["ExactQuadrature"], "oracle": oracle}
                for gas in ("fermi_0.2", "bose_0.2")]
        runs.append({"gas": "degenerate_charged", "units": "reduced", "lo": rng.uniform(*ORACLE_X_MIN),
                     "hi": rng.uniform(*ORACLE_X_MAX), "n_points": ORACLE_POINTS,
                     "branches": ["ExactDegenerate"], "oracle": oracle})
        dominant = [{"gas": "fermi_0.2", "units": "y", "x": x}
                    for x in strata.points(c, ORACLE_Y_MIN[0], ORACLE_Y_MAX[1])]
        return {"runs": runs, "dominant": dominant}

    return cycle


_MAKERS = {"thermal_roots": _thermal, "degenerate_run": _degenerate, "oracle_compare": _oracle}
WORKLOADS = list(_MAKERS)


def generate(workload: str, seed: int) -> list[dict]:
    """The CYCLES[workload] input cycles of a workload for a seed."""
    cycle = _MAKERS[workload](random.Random(f"{workload}:{seed}"))
    return [cycle(c) for c in range(CYCLES[workload])]


def probe_inputs(seed: int) -> dict[str, list[dict]]:
    """One small cycle per workload for the layer probe of a traced run:
    one thermal gas, 8-point CLI grids and one t_end = 20 oracle mode."""
    rng = random.Random(f"probe:{seed}")
    thermal = {"gases": [{"gas": "fermi_0.2", "sweep_y": _Strata(rng, 3).points(0, 0.3, 0.45),
                          "dominant_y": _Strata(rng, 1).points(0, 0.3, 0.45)}]}
    degenerate = _degenerate(rng)(0)
    for run in degenerate["runs"]:
        run["n_points"] = 8
    oracle = _oracle(rng)(0)
    oracle["runs"] = [dict(oracle["runs"][0], n_points=2,
                           oracle={"n_v": ORACLE_N_V, "t_end": 20.0, "subsample": 2})]
    oracle["dominant"] = oracle["dominant"][:1]
    return {"thermal_roots": [thermal], "degenerate_run": [degenerate], "oracle_compare": [oracle]}


def digest(inputs) -> str:
    """Short hash of the generated inputs, for the provenance record."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
