"""Config-driven command line: branch sweeps to CSV plus oracle comparisons.

Two subcommands share one INI config format:

    disperse run --config sweep.ini [--output-dir DIR] [--quiet]
    disperse compare --config sweep.ini [--output-dir DIR] [--quiet]

run writes one CSV per requested branch and a summary file whose body is the
fully resolved config (defaults filled in), so re-running from the summary
reproduces the output byte for byte.  compare re-solves the first exact
branch, integrates the kinetic oracle at subsampled k, and reports both.

Exit codes: 0 clean, 1 config or validation error, 2 at least one point
failed (a non-converged root, a seed failure, or an oracle mismatch).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .dispersion_core import EXACT_BRANCHES, BranchId
from .errors import DisperseError, SeedFailure
from .kinetic_oracle import OracleConfig, evolve_mode
from .quantum_stats import DerivedScales, SpeciesParams, Statistics, derive_scales
from .root_solver import DispersionResult, SolverConfig, check_branch_species, sweep

CSV_HEADER = "k,omega,eta,v_phase,r,epsilon,residual,iterations,converged,branch"
COMPARE_HEADER = "k,omega_solver,eta_solver,omega_oracle,eta_oracle,rel_err_omega,abs_err_eta"

# compare gate, criterion 06's bounds: omega to 2 percent, and eta to 15
# percent once the solver's |eta| exceeds 1 percent of omega; below that only
# the signs must agree, and an eta below ETA_SIGN_DEADBAND of omega counts as
# zero (an undamped root's sign is noise)
OMEGA_RTOL = 0.02
ETA_RTOL = 0.15
ETA_RESOLVED = 0.01
ETA_SIGN_DEADBAND = 1e-6


class ConfigError(Exception):
    """Raised for any config parse or validation problem; exits with code 1."""


_SCHEMA = {
    "species": {"mass", "charge", "density", "temperature", "statistics",
                "spin_degeneracy", "fully_degenerate"},
    "sweep": {"k_min", "k_max", "n_points", "spacing", "units", "branches"},
    "solver": {"abs_tol", "max_iter"},
    "oracle": {"enabled", "subsample", "n_v", "v_max", "dt", "t_end"},
    "hooks": {"bohm_term"},
    "output": {"path", "precision"},
}


@dataclass
class RunConfig:
    species: SpeciesParams
    scales: DerivedScales
    k_min: float          # SI, after unit resolution
    k_max: float
    n_points: int
    spacing: str
    units: str
    branches: list
    solver: SolverConfig
    oracle_enabled: bool
    oracle: OracleConfig
    subsample: int
    bohm_term: bool
    out_path: str
    precision: int


def _fail(where: str, what: str):
    raise ConfigError(f"{where}: {what}")


def _get(cp, section: str, key: str, conv, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            _fail(f"{section}.{key}", "missing required field")
        return default
    raw = cp.get(section, key).strip()
    try:
        return conv(raw)
    except (ValueError, KeyError):
        _fail(f"{section}.{key}", f"cannot interpret {raw!r}")


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _as_branches(raw: str) -> list:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    return [BranchId[name] for name in names]


def load_config(path: str, output_dir: str | None = None) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    read = cp.read(path)
    if not read:
        _fail(path, "config file not found or unreadable")
    for section in cp.sections():
        if section not in _SCHEMA:
            _fail(section, "unknown section")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                _fail(f"{section}.{key}", "unknown field")

    stats_raw = _get(cp, "species", "statistics", str, required=True).lower()
    if stats_raw not in ("fermi", "bose"):
        _fail("species.statistics", f"must be fermi or bose, got {stats_raw!r}")
    try:
        species = SpeciesParams(
            mass=_get(cp, "species", "mass", float, required=True),
            charge=_get(cp, "species", "charge", float, required=True),
            spin_degeneracy=_get(cp, "species", "spin_degeneracy", int, default=2),
            density=_get(cp, "species", "density", float, required=True),
            temperature=_get(cp, "species", "temperature", float, required=True),
            statistics=Statistics(stats_raw),
            fully_degenerate=_get(cp, "species", "fully_degenerate", _as_bool, default=False),
        )
    except ValueError as exc:
        _fail("species", str(exc))
    scales = derive_scales(species)  # DegeneracyOutOfRange propagates to exit 1

    spacing = _get(cp, "sweep", "spacing", str, default="linear").lower()
    if spacing not in ("linear", "log"):
        _fail("sweep.spacing", f"unknown spacing {spacing!r}")
    units = _get(cp, "sweep", "units", str, default="si").lower()
    if units not in ("si", "reduced"):
        _fail("sweep.units", f"must be si or reduced, got {units!r}")
    if units == "reduced" and scales.omega_p == 0.0:
        _fail("sweep.units", "reduced units need a charged species (omega_p > 0)")
    k_min = _get(cp, "sweep", "k_min", float, required=True)
    k_max = _get(cp, "sweep", "k_max", float, required=True)
    n_points = _get(cp, "sweep", "n_points", int, required=True)
    if not 0 < k_min < k_max:
        _fail("sweep.k_min", "need 0 < k_min < k_max")
    if n_points < 2:
        _fail("sweep.n_points", "need at least 2 points")
    if units == "reduced":
        unit_k = scales.omega_p / scales.v_ch
        k_min, k_max = k_min * unit_k, k_max * unit_k
    branches = _get(cp, "sweep", "branches", _as_branches, required=True)
    if not branches:
        _fail("sweep.branches", "at least one branch required")

    bohm = _get(cp, "hooks", "bohm_term", _as_bool, default=True)
    if not bohm and species.charge == 0.0:
        _fail("hooks.bohm_term", "off with a neutral species leaves no restoring force")
    for branch in branches:
        try:
            check_branch_species(branch, species, scales)
        except ValueError as exc:
            _fail("sweep.branches", f"{branch.name}: {exc}")

    try:
        solver = SolverConfig(
            abs_tol=_get(cp, "solver", "abs_tol", float, default=SolverConfig.abs_tol),
            max_iter=_get(cp, "solver", "max_iter", int, default=SolverConfig.max_iter),
        )
    except ValueError as exc:
        _fail("solver", str(exc))

    v_max_raw = _get(cp, "oracle", "v_max", str, default="auto")
    v_max = None if v_max_raw.lower() in ("auto", "") else float(v_max_raw)
    try:
        oracle = OracleConfig(
            n_v=_get(cp, "oracle", "n_v", int, default=OracleConfig.n_v),
            v_max=v_max,
            dt=_get(cp, "oracle", "dt", float, default=OracleConfig.dt),
            t_end=_get(cp, "oracle", "t_end", float, default=OracleConfig.t_end),
        )
    except ValueError as exc:
        _fail("oracle", str(exc))
    subsample = _get(cp, "oracle", "subsample", int, default=10)
    if subsample < 1:
        _fail("oracle.subsample", "subsample must be >= 1")

    out_path = output_dir if output_dir is not None else _get(cp, "output", "path", str, default=".")
    precision = _get(cp, "output", "precision", int, default=17)
    if not 2 <= precision <= 17:
        _fail("output.precision", "precision must be in [2, 17]")

    return RunConfig(
        species=species, scales=scales, k_min=k_min, k_max=k_max,
        n_points=n_points, spacing=spacing, units=units, branches=branches,
        solver=solver, oracle_enabled=_get(cp, "oracle", "enabled", _as_bool, default=False),
        oracle=oracle, subsample=subsample, bohm_term=bohm,
        out_path=out_path, precision=precision,
    )


def resolved_config_text(cfg: RunConfig) -> str:
    """Serialize the fully resolved config as INI; floats use repr so a
    round-trip reproduces the exact same values."""
    sp = cfg.species
    unit_k = cfg.scales.omega_p / cfg.scales.v_ch if cfg.units == "reduced" else 1.0
    lines = [
        "[species]",
        f"mass = {sp.mass!r}",
        f"charge = {sp.charge!r}",
        f"spin_degeneracy = {sp.spin_degeneracy}",
        f"density = {sp.density!r}",
        f"temperature = {sp.temperature!r}",
        f"statistics = {sp.statistics.value}",
        f"fully_degenerate = {str(sp.fully_degenerate).lower()}",
        "",
        "[sweep]",
        f"k_min = {cfg.k_min / unit_k!r}",
        f"k_max = {cfg.k_max / unit_k!r}",
        f"n_points = {cfg.n_points}",
        f"spacing = {cfg.spacing}",
        f"units = {cfg.units}",
        "branches = " + ", ".join(branch.name for branch in cfg.branches),
        "",
        "[solver]",
        f"abs_tol = {cfg.solver.abs_tol!r}",
        f"max_iter = {cfg.solver.max_iter}",
        "",
        "[oracle]",
        f"enabled = {str(cfg.oracle_enabled).lower()}",
        f"subsample = {cfg.subsample}",
        f"n_v = {cfg.oracle.n_v}",
        "v_max = " + ("auto" if cfg.oracle.v_max is None else repr(cfg.oracle.v_max)),
        f"dt = {cfg.oracle.dt!r}",
        f"t_end = {cfg.oracle.t_end!r}",
        "",
        "[hooks]",
        f"bohm_term = {'on' if cfg.bohm_term else 'off'}",
        "",
        "[output]",
        f"path = {cfg.out_path}",
        f"precision = {cfg.precision}",
        "",
    ]
    return "\n".join(lines)


def _k_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.spacing == "log":
        return np.geomspace(cfg.k_min, cfg.k_max, cfg.n_points)
    return np.linspace(cfg.k_min, cfg.k_max, cfg.n_points)


def _format_row(cfg: RunConfig, res: DispersionResult) -> str:
    fmt = f"{{:.{cfg.precision - 1}e}}"
    if cfg.units == "reduced":
        k_out = res.k * cfg.scales.v_ch / cfg.scales.omega_p
        om = res.rate.omega / cfg.scales.omega_p
        et = res.rate.eta / cfg.scales.omega_p
        vp = res.rate.omega / res.k / cfg.scales.v_ch
    else:
        k_out = res.k
        om = res.rate.omega
        et = res.rate.eta
        vp = res.rate.omega / res.k
    r = res.k * cfg.scales.v_ch / res.rate.omega
    eps = res.rate.eta / res.rate.omega
    cells = [fmt.format(val) for val in (k_out, om, et, vp, r, eps, res.residual_norm)]
    cells.append(str(res.iterations))
    cells.append("true" if res.converged else "false")
    cells.append(res.branch.name)
    return ",".join(cells)


def _sweep_branch(cfg: RunConfig, branch: BranchId, k_grid: np.ndarray):
    """Returns (results, error_message); SeedFailure yields an empty sweep."""
    try:
        results = sweep(k_grid, branch, cfg.species, cfg.scales, cfg.solver,
                        bohm_term=cfg.bohm_term)
        return results, None
    except SeedFailure as exc:
        return [], f"{branch.name}: no usable seed at the first point ({exc})"
    except DisperseError as exc:
        return [], f"{branch.name}: {type(exc).__name__}: {exc}"


def _write_branch_csv(cfg: RunConfig, branch: BranchId, results) -> str:
    path = os.path.join(cfg.out_path, f"{branch.name}.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(CSV_HEADER + "\n")
        for res in results:
            handle.write(_format_row(cfg, res) + "\n")
    return path


def _branch_stats_line(branch: BranchId, results, error: str | None) -> str:
    if error is not None:
        return f"# branch {branch.name}: failed ({error})"
    n_conv = sum(1 for r in results if r.converged)
    finite = [r.residual_norm for r in results if math.isfinite(r.residual_norm)]
    max_resid = max(finite) if finite else float("inf")
    max_iter = max((r.iterations for r in results), default=0)
    return (f"# branch {branch.name}: points {len(results)}, converged {n_conv}, "
            f"max_residual {max_resid:.3e}, max_iterations {max_iter}")


def cmd_run(cfg: RunConfig, quiet: bool) -> int:
    os.makedirs(cfg.out_path, exist_ok=True)
    k_grid = _k_grid(cfg)
    stats = []
    all_ok = True
    for branch in cfg.branches:
        results, error = _sweep_branch(cfg, branch, k_grid)
        path = _write_branch_csv(cfg, branch, results)
        stats.append(_branch_stats_line(branch, results, error))
        ok = error is None and all(r.converged for r in results)
        all_ok = all_ok and ok
        if not quiet:
            print(f"{branch.name}: {len(results)} points -> {path}" + ("" if ok else "  [INCOMPLETE]"))

    summary_path = os.path.join(cfg.out_path, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write("# disperse run summary (re-runnable as a config)\n")
        for line in stats:
            handle.write(line + "\n")
        handle.write("\n")
        handle.write(resolved_config_text(cfg))
    if not quiet:
        print(f"summary -> {summary_path}")
    return 0 if all_ok else 2


def oracle_agrees(omega_solver: float, eta_solver: float,
                  omega_oracle: float, eta_oracle: float) -> bool:
    """Compare gate for one mode: omega within OMEGA_RTOL; eta within ETA_RTOL
    when the solver's |eta| exceeds ETA_RESOLVED of omega, else no damping
    sign disagreement outside the dead band."""
    if not abs(omega_oracle - omega_solver) < OMEGA_RTOL * omega_solver:
        return False
    if abs(eta_solver) > ETA_RESOLVED * omega_solver:
        return abs(eta_oracle - eta_solver) <= ETA_RTOL * abs(eta_solver)
    return (eta_solver * eta_oracle >= 0.0
            or abs(eta_solver) < ETA_SIGN_DEADBAND * omega_solver
            or abs(eta_oracle) < ETA_SIGN_DEADBAND * omega_oracle)


def cmd_compare(cfg: RunConfig, quiet: bool) -> int:
    if not cfg.oracle_enabled:
        print("compare requires oracle: set [oracle] enabled = true", file=sys.stderr)
        return 1
    exact = [b for b in cfg.branches if b in EXACT_BRANCHES]
    if not exact:
        print("compare requires an exact branch in sweep.branches", file=sys.stderr)
        return 1
    branch = exact[0]

    os.makedirs(cfg.out_path, exist_ok=True)
    k_grid = _k_grid(cfg)
    results, error = _sweep_branch(cfg, branch, k_grid)
    if error is not None:
        print(f"solver sweep failed: {error}", file=sys.stderr)
        return 2

    alpha = None if cfg.species.fully_degenerate else cfg.scales.alpha
    fmt = f"{{:.{cfg.precision - 1}e}}"
    scale = cfg.scales.omega_p if cfg.units == "reduced" else 1.0
    unit_k = cfg.scales.omega_p / cfg.scales.v_ch if cfg.units == "reduced" else 1.0
    all_ok = True
    lines = [COMPARE_HEADER]
    for res in results[:: cfg.subsample]:
        try:
            run = evolve_mode(res.k, cfg.species, alpha, cfg.oracle, bohm_term=cfg.bohm_term)
        except (DisperseError, ValueError) as exc:
            run = None
            if not quiet:
                print(f"oracle failed at k = {res.k:.6e}: {type(exc).__name__}: {exc}", file=sys.stderr)
        omega, eta = (math.nan, math.nan) if run is None else (run.omega_fit, run.eta_fit)
        ok = run is not None and res.converged and oracle_agrees(res.rate.omega, res.rate.eta, omega, eta)
        all_ok = all_ok and ok
        rel_om = abs(omega - res.rate.omega) / res.rate.omega
        cells = (res.k / unit_k, res.rate.omega / scale, res.rate.eta / scale,
                 omega / scale, eta / scale, rel_om, abs(eta - res.rate.eta) / scale)
        lines.append(",".join(fmt.format(cell) for cell in cells))
        if not quiet and run is not None:
            verdict = "ok" if ok else "MISMATCH"
            print(f"k = {res.k:.6e}: rel_err_omega = {rel_om:.3e}, "
                  f"eta solver {res.rate.eta / scale:.3e} oracle {eta / scale:.3e}  [{verdict}]")

    path = os.path.join(cfg.out_path, "compare.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    if not quiet:
        print(f"compare -> {path}")
    return 0 if all_ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="disperse",
        description="Dispersion and damping of charged quantum gases: branch sweeps and kinetic cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--output-dir", default=None, help="override [output] path")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.output_dir)
        if args.command == "run":
            return cmd_run(cfg, args.quiet)
        return cmd_compare(cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DisperseError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
