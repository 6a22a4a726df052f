"""Config-driven command line: branch sweeps to CSV plus oracle comparisons.

Two subcommands share one INI config format:

    disperse run --config sweep.ini [--output-dir DIR] [--quiet]
    disperse compare --config sweep.ini [--output-dir DIR] [--quiet]

run writes one CSV per requested branch and a summary file that echoes the
config as read, with defaults filled in, so re-running from the summary
reproduces the output byte for byte.  compare re-solves the first exact
branch, integrates the kinetic oracle at subsampled k, and reports both.
_FIELDS lists every config field once, with its default and its parser.

Exit codes: 0 clean, 1 config or validation error, 2 at least one point
failed (a non-converged root, a seed failure, or an oracle mismatch).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dispersion_core import EXACT_BRANCHES, BranchId, check_wavenumber
from .errors import DisperseError, SeedFailure
from .kinetic_oracle import OracleConfig, evolve_mode
from .quantum_stats import DerivedScales, SpeciesParams, Statistics, derive_scales, with_bohm_term
from .root_solver import SolverConfig, check_branch_species, sweep

CSV_HEADER = "k,omega,eta,v_phase,r,epsilon,residual,iterations,converged,branch"
COMPARE_HEADER = "k,omega_solver,eta_solver,omega_oracle,eta_oracle,rel_err_omega,abs_err_eta"
_FLOAT = "{:.16e}"  # 17 significant digits: every double prints distinctly
# a run CSV row's template: seven float cells as _FLOAT prints them, then
# iterations and converged; the file's branch name closes it
_ROW_CELLS = ",".join(["%.16e"] * 7 + ["%d", "%s", ""])


class ConfigError(Exception):
    """Raised for any config parse or validation problem; exits with code 1."""


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _one_of(*choices: str):
    def parse(raw: str) -> str:
        low = raw.lower()
        if low not in choices:
            raise ValueError(raw)
        return low
    return parse


def _as_statistics(raw: str) -> Statistics:
    return Statistics(raw.lower())


def _as_branches(raw: str) -> list:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    return [BranchId[name] for name in names]


# every config field in summary order, with its default as config text
# (None: required) and the parser of its text; [oracle] n_v is read and
# ignored, since the oracle sizes its velocity grid itself
_FIELDS = {
    "species": {"mass": (None, float), "charge": (None, float), "spin_degeneracy": ("2", int),
                "density": (None, float), "temperature": (None, float), "statistics": (None, _as_statistics)},
    "sweep": {"k_min": (None, float), "k_max": (None, float), "n_points": (None, int),
              "spacing": ("linear", _one_of("linear", "log")), "units": ("si", _one_of("si", "reduced")),
              "branches": (None, _as_branches)},
    "solver": {"abs_tol": (repr(SolverConfig.abs_tol), float), "max_iter": (repr(SolverConfig.max_iter), int)},
    "oracle": {"enabled": ("false", _as_bool), "subsample": ("10", int), "n_v": ("4096", int),
               "dt": (repr(OracleConfig.dt), float), "t_end": (repr(OracleConfig.t_end), float)},
    "hooks": {"bohm_term": ("on", _as_bool)},
    "output": {"path": (".", str)},
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


def _read_values(path: str, output_dir: str | None) -> tuple[dict, dict]:
    """Text and parsed value of every _FIELDS entry: the file's, else the
    default."""
    # no section header can name the empty string, so a [DEFAULT] section is
    # read as an ordinary one and refused as unknown
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"), default_section="")
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
    if output_dir is not None:
        cp.read_dict({"output": {"path": output_dir}})
    texts, values = {}, {}
    for section, table in _FIELDS.items():
        texts[section], values[section] = {}, {}
        for key, (default, parse) in table.items():
            text = cp.get(section, key, fallback=default)
            if text is None:
                _fail(f"{section}.{key}", "missing required field")
            try:
                values[section][key] = parse(text)
            except (ValueError, KeyError):
                _fail(f"{section}.{key}", f"cannot interpret {text!r}")
            texts[section][key] = text
    return texts, values


def _config_text(texts: dict) -> str:
    """INI text of the values; a multi-line value continues on indented lines."""
    lines = []
    for section, table in texts.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = " + value.replace("\n", "\n\t") for key, value in table.items()]
        lines.append("")
    return "\n".join(lines)


def load_config(path: str, output_dir: str | None = None) -> RunConfig:
    texts, values = _read_values(path, output_dir)
    sweep_values, oracle_values = values["sweep"], values["oracle"]
    try:
        species = SpeciesParams(**values["species"])
    except ValueError as exc:
        _fail("species", str(exc))
    scales = derive_scales(species)  # DegeneracyOutOfRange propagates to exit 1

    if sweep_values["units"] == "reduced" and scales.omega_p == 0.0:
        _fail("sweep.units", "reduced units need a charged species (omega_p > 0)")
    unit_omega, unit_v = (scales.omega_p, scales.v_ch) if sweep_values["units"] == "reduced" else (1.0, 1.0)
    if not 0 < sweep_values["k_min"] < sweep_values["k_max"]:
        _fail("sweep.k_min", "need 0 < k_min < k_max")
    if sweep_values["n_points"] < 2:
        _fail("sweep.n_points", "need at least 2 points")
    if not sweep_values["branches"]:
        _fail("sweep.branches", "at least one branch required")

    bohm = values["hooks"]["bohm_term"]
    if not bohm and species.charge == 0.0:
        _fail("hooks.bohm_term", "off with a neutral species leaves no restoring force")
    unit_k = unit_omega / unit_v
    try:
        check_wavenumber(sweep_values["k_max"] * unit_k, with_bohm_term(scales, bohm))
    except ValueError as exc:
        _fail("sweep.k_max", str(exc))
    for branch in sweep_values["branches"]:
        try:
            check_branch_species(branch, species, scales)
        except ValueError as exc:
            _fail("sweep.branches", f"{branch.name}: {exc}")

    try:
        solver = SolverConfig(**values["solver"])
    except ValueError as exc:
        _fail("solver", str(exc))
    try:
        oracle = OracleConfig(**{field.name: oracle_values[field.name] for field in fields(OracleConfig)})
    except ValueError as exc:
        _fail("oracle", str(exc))
    if oracle_values["subsample"] < 1:
        _fail("oracle.subsample", "subsample must be >= 1")

    return RunConfig(
        species=species, scales=scales, k_min=sweep_values["k_min"] * unit_k,
        k_max=sweep_values["k_max"] * unit_k, n_points=sweep_values["n_points"],
        spacing=sweep_values["spacing"], branches=sweep_values["branches"], solver=solver,
        oracle_enabled=oracle_values["enabled"], oracle=oracle, subsample=oracle_values["subsample"],
        bohm_term=bohm, out_path=values["output"]["path"], unit_omega=unit_omega, unit_v=unit_v,
        text=_config_text(texts),
    )


def _k_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.spacing == "log":
        return np.geomspace(cfg.k_min, cfg.k_max, cfg.n_points)
    return np.linspace(cfg.k_min, cfg.k_max, cfg.n_points)


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
    """The branch's CSV: every row's cells gathered into one list, and the
    file formatted by one % over the header and a row template per result
    (every result of a sweep carries the sweep's branch)."""
    path = os.path.join(cfg.out_path, f"{branch.name}.csv")
    unit_omega, unit_v, v_ch = cfg.unit_omega, cfg.unit_v, cfg.scales.v_ch
    cells = []
    for res in results:
        k, omega, eta = res.k, res.rate.omega, res.rate.eta
        cells += (k * unit_v / unit_omega, omega / unit_omega, eta / unit_omega, omega / k / unit_v,
                  k * v_ch / omega, eta / omega, res.residual_norm,
                  res.iterations, "true" if res.converged else "false")
    text = "\n".join([CSV_HEADER] + [_ROW_CELLS + branch.name] * len(results)) % tuple(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
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
    """Compare gate for one mode: omega within 1e-6 of the solver's and eta
    within 1e-6 omega, damped or not.  The matrix pencil reads thermal and
    T = 0 modes to ~1e-10 in omega, so the bounds leave margin but catch a
    spurious damping or growth on an undamped root."""
    return (abs(omega_oracle - omega_solver) <= 1e-6 * omega_solver
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

    scale = cfg.unit_omega
    all_ok = True
    lines = [COMPARE_HEADER]
    for res in results[:: cfg.subsample]:
        try:
            run = evolve_mode(res.k, cfg.species, cfg.scales.alpha, cfg.oracle, bohm_term=cfg.bohm_term)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once a process; parse_args leaves it as it was."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
