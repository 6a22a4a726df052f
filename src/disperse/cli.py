"""Config-driven command line: branch sweeps to CSV plus oracle comparisons.

Two subcommands share one INI config format:

    disperse run --config sweep.ini [--output-dir DIR] [--quiet]
    disperse compare --config sweep.ini [--output-dir DIR] [--quiet]

run writes one CSV per requested branch and a summary file that echoes the
config as read, with defaults filled in, so re-running from the summary
reproduces the output byte for byte.  compare re-solves the first exact
branch, integrates the kinetic oracle at subsampled k, and reports both.
_FIELDS lists every config field once, with its default.

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
_FLOAT = "{:.16e}"  # 17 significant digits: every double prints distinctly


class ConfigError(Exception):
    """Raised for any config parse or validation problem; exits with code 1."""


# every config field in summary order, with its default as config text
# (None: required)
_FIELDS = {
    "species": {"mass": None, "charge": None, "spin_degeneracy": "2", "density": None,
                "temperature": None, "statistics": None, "fully_degenerate": "false"},
    "sweep": {"k_min": None, "k_max": None, "n_points": None, "spacing": "linear",
              "units": "si", "branches": None},
    "solver": {"abs_tol": repr(SolverConfig.abs_tol), "max_iter": repr(SolverConfig.max_iter)},
    "oracle": {"enabled": "false", "subsample": "10", "n_v": repr(OracleConfig.n_v),
               "v_max": "auto", "dt": repr(OracleConfig.dt), "t_end": repr(OracleConfig.t_end)},
    "hooks": {"bohm_term": "on"},
    "output": {"path": "."},
}


@dataclass
class RunConfig:
    species: SpeciesParams
    scales: DerivedScales
    k_min: float          # SI, after unit resolution
    k_max: float
    n_points: int
    spacing: str
    branches: list
    solver: SolverConfig
    oracle_enabled: bool
    oracle: OracleConfig
    subsample: int
    bohm_term: bool
    out_path: str
    unit_omega: float     # (Omega_p, v_ch) in reduced units, (1, 1) in SI
    unit_v: float
    text: str             # the config as read, defaults filled in


def _fail(where: str, what: str):
    raise ConfigError(f"{where}: {what}")


def _get(values: dict, section: str, key: str, conv):
    raw = values[section][key]
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


def _as_v_max(raw: str) -> float | None:
    return None if raw.lower() in ("auto", "") else float(raw)


def _read_values(path: str, output_dir: str | None) -> dict:
    """Raw text of every _FIELDS entry: the file's value, else the default."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        _fail(path, " ".join(str(exc).split()))
    if not read:
        _fail(path, "config file not found or unreadable")
    for section in cp.sections():
        if section not in _FIELDS:
            _fail(section, "unknown section")
        for key in cp.options(section):
            if key not in _FIELDS[section]:
                _fail(f"{section}.{key}", "unknown field")
    values = {}
    for section, fields in _FIELDS.items():
        values[section] = {}
        for key, default in fields.items():
            value = cp.get(section, key, fallback=default)
            if value is None:
                _fail(f"{section}.{key}", "missing required field")
            values[section][key] = value
    if output_dir is not None:
        values["output"]["path"] = output_dir
    return values


def _config_text(values: dict) -> str:
    """INI text of the values; a multi-line value continues on indented lines."""
    lines = []
    for section, fields in values.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = " + value.replace("\n", "\n\t") for key, value in fields.items()]
        lines.append("")
    return "\n".join(lines)


def load_config(path: str, output_dir: str | None = None) -> RunConfig:
    values = _read_values(path, output_dir)

    stats_raw = values["species"]["statistics"].lower()
    if stats_raw not in ("fermi", "bose"):
        _fail("species.statistics", f"must be fermi or bose, got {stats_raw!r}")
    try:
        species = SpeciesParams(
            mass=_get(values, "species", "mass", float),
            charge=_get(values, "species", "charge", float),
            spin_degeneracy=_get(values, "species", "spin_degeneracy", int),
            density=_get(values, "species", "density", float),
            temperature=_get(values, "species", "temperature", float),
            statistics=Statistics(stats_raw),
            fully_degenerate=_get(values, "species", "fully_degenerate", _as_bool),
        )
    except ValueError as exc:
        _fail("species", str(exc))
    scales = derive_scales(species)  # DegeneracyOutOfRange propagates to exit 1

    spacing = values["sweep"]["spacing"].lower()
    if spacing not in ("linear", "log"):
        _fail("sweep.spacing", f"unknown spacing {spacing!r}")
    units = values["sweep"]["units"].lower()
    if units not in ("si", "reduced"):
        _fail("sweep.units", f"must be si or reduced, got {units!r}")
    if units == "reduced" and scales.omega_p == 0.0:
        _fail("sweep.units", "reduced units need a charged species (omega_p > 0)")
    unit_omega, unit_v = (scales.omega_p, scales.v_ch) if units == "reduced" else (1.0, 1.0)
    k_min = _get(values, "sweep", "k_min", float)
    k_max = _get(values, "sweep", "k_max", float)
    n_points = _get(values, "sweep", "n_points", int)
    if not 0 < k_min < k_max:
        _fail("sweep.k_min", "need 0 < k_min < k_max")
    if n_points < 2:
        _fail("sweep.n_points", "need at least 2 points")
    branches = _get(values, "sweep", "branches", _as_branches)
    if not branches:
        _fail("sweep.branches", "at least one branch required")

    bohm = _get(values, "hooks", "bohm_term", _as_bool)
    if not bohm and species.charge == 0.0:
        _fail("hooks.bohm_term", "off with a neutral species leaves no restoring force")
    for branch in branches:
        try:
            check_branch_species(branch, species, scales)
        except ValueError as exc:
            _fail("sweep.branches", f"{branch.name}: {exc}")

    try:
        solver = SolverConfig(
            abs_tol=_get(values, "solver", "abs_tol", float),
            max_iter=_get(values, "solver", "max_iter", int),
        )
    except ValueError as exc:
        _fail("solver", str(exc))

    try:
        oracle = OracleConfig(
            n_v=_get(values, "oracle", "n_v", int),
            v_max=_get(values, "oracle", "v_max", _as_v_max),
            dt=_get(values, "oracle", "dt", float),
            t_end=_get(values, "oracle", "t_end", float),
        )
    except ValueError as exc:
        _fail("oracle", str(exc))
    subsample = _get(values, "oracle", "subsample", int)
    if subsample < 1:
        _fail("oracle.subsample", "subsample must be >= 1")

    unit_k = unit_omega / unit_v
    return RunConfig(
        species=species, scales=scales, k_min=k_min * unit_k, k_max=k_max * unit_k,
        n_points=n_points, spacing=spacing, branches=branches, solver=solver,
        oracle_enabled=_get(values, "oracle", "enabled", _as_bool),
        oracle=oracle, subsample=subsample, bohm_term=bohm,
        out_path=values["output"]["path"], unit_omega=unit_omega, unit_v=unit_v,
        text=_config_text(values),
    )


def _k_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.spacing == "log":
        return np.geomspace(cfg.k_min, cfg.k_max, cfg.n_points)
    return np.linspace(cfg.k_min, cfg.k_max, cfg.n_points)


def _format_row(cfg: RunConfig, res: DispersionResult) -> str:
    r = res.k * cfg.scales.v_ch / res.rate.omega
    eps = res.rate.eta / res.rate.omega
    cells = (res.k * cfg.unit_v / cfg.unit_omega, res.rate.omega / cfg.unit_omega,
             res.rate.eta / cfg.unit_omega, res.rate.omega / res.k / cfg.unit_v,
             r, eps, res.residual_norm)
    return ",".join([_FLOAT.format(val) for val in cells]
                    + [str(res.iterations), "true" if res.converged else "false", res.branch.name])


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
        handle.write(cfg.text)
    if not quiet:
        print(f"summary -> {summary_path}")
    return 0 if all_ok else 2


def oracle_agrees(omega_solver: float, eta_solver: float,
                  omega_oracle: float, eta_oracle: float) -> bool:
    """Compare gate for one mode: omega within 1e-3 of the solver's and eta
    within 1e-6 omega, damped or not.  The matrix pencil reads thermal modes
    to ~1e-10 and the charged T = 0 mode to ~1.5e-4 in omega (the oracle's
    smoothed Fermi edge), so the bounds leave margin but catch a spurious
    damping or growth on an undamped root."""
    return (abs(omega_oracle - omega_solver) <= 1e-3 * omega_solver
            and abs(eta_oracle - eta_solver) <= 1e-6 * omega_solver)


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
    scale = cfg.unit_omega
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
        cells = (res.k * cfg.unit_v / scale, res.rate.omega / scale, res.rate.eta / scale,
                 omega / scale, eta / scale, rel_om, abs(eta - res.rate.eta) / scale)
        lines.append(",".join(_FLOAT.format(cell) for cell in cells))
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
