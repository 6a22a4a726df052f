"""The three workloads.  Each runs one input cycle plainly (the measured
path), replays it under a tracer (the per-layer path) and checks outputs.

* thermal_roots: library `sweep` on ExactWeak and ExactQuadrature over
  thermal gases, plus cold-start `dominant_root` calls.  The replay is the
  same calls through the traced functions.
* degenerate_run: `disperse.cli.main(["run", ...])` on generated configs for
  the charged and the neutral T = 0 gas.
* oracle_compare: `disperse.cli.main(["compare", ...])` on generated configs
  for the fugacity-0.2 gases and the charged T = 0 gas.

The CLI workloads replay the CLI's layer calls serially from the same config
(`load_config`, `sweep` per branch, then `evolve_mode` and `fit_omega_eta`
per oracle mode); the CLI's pool, CSV formatting and file output are what the
replay leaves out.  Every workload also times `dominant_root` on its own
gases at its own wavenumbers, apart from the CLI calls.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from disperse import cli, quantum_stats, root_solver
from disperse.dispersion_core import BranchId, ComplexRate
from disperse.errors import DisperseError
from disperse.quantum_stats import SpeciesParams, Statistics

import checks
import clock
import gen

EXACT = {"ExactWeak", "ExactQuadrature", "ExactDegenerate"}
ABS_TOL = root_solver.SolverConfig().abs_tol  # the generated configs keep the solver defaults


@dataclass
class Timing:
    """What one pass over some cycles did, and how long its calls took."""

    wall: float = 0.0          # every timed call of the pass; all walls in reference seconds (clock.py)
    raw_wall: float = 0.0      # the same calls' raw wall
    roots: int = 0             # exact-branch sweep points attempted
    root_wall: float = 0.0     # wall of the calls that attempted them
    modes: int = 0             # k points cross-checked by two independent routes
    mode_wall: float = 0.0     # wall of the calls that produced both routes
    # (roots, root_wall, modes, mode_wall) per window of like work: a cycle,
    # or one compare call on oracle_compare, whose cycle is three of them
    windows: list = field(default_factory=list)
    cli_wall: float = 0.0      # CLI calls (or their serial replay)
    cli_calls: int = 0
    rows: int = 0              # CSV data rows the CLI wrote
    dominant_ms: list = field(default_factory=list)

    def time(self, func, *args, **kwargs):
        """Call func; add its wall to `wall` and return (result, wall)."""
        out, raw, wall = clock.timed(func, *args, **kwargs)
        self.raw_wall += raw
        self.wall += wall
        return out, wall

    def window_start(self) -> tuple:
        return (self.roots, self.root_wall, self.modes, self.mode_wall)

    def window_end(self, start: tuple) -> None:
        now = self.window_start()
        self.windows.append(tuple(b - a for a, b in zip(start, now)))

    def rates(self) -> tuple[float, float]:
        """Median over windows of roots and of modes per second."""
        return (statistics.median(r / w for r, w, _, _ in self.windows),
                statistics.median(m / w for _, _, m, w in self.windows))


@dataclass
class ReplayOut:
    """Results of a traced replay that spans do not show."""

    roots: int = 0
    nonconverged: int = 0
    rel_err_omega: list = field(default_factory=list)
    rel_err_eta: list = field(default_factory=list)
    fit_residual: list = field(default_factory=list)


class Env:
    """Species, derived scales and the scratch directory of one run."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self._species: dict = {}

    def species(self, gas: str):
        if gas not in self._species:
            spec = gen.GASES[gas]
            sp = SpeciesParams(
                mass=gen.ELECTRON_MASS, charge=spec["charge"], spin_degeneracy=2,
                density=gen.DENSITY, temperature=spec["temperature"],
                statistics=Statistics(spec["statistics"]),
            )
            self._species[gas] = (sp, quantum_stats.derive_scales(sp))
        return self._species[gas]

    def k(self, gas: str, units: str, x: float) -> float:
        _, sc = self.species(gas)
        if units == "y":
            return x * sc.omega_p / math.sqrt(sc.v_th_sq)
        if units == "reduced":
            return x * sc.omega_p / sc.v_ch
        return x * sc.v_ch / math.sqrt(sc.lambda_quantum)  # kappa

    def write_config(self, run: dict, tag: str) -> tuple[str, str]:
        path = os.path.join(self.work_dir, f"{tag}.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config_text(self, run))
        return path, os.path.join(self.work_dir, f"out-{tag}")


def config_text(env: Env, run: dict) -> str:
    """The INI config the CLI reads for one generated run."""
    spec = gen.GASES[run["gas"]]
    if run["units"] == "reduced":
        lo, hi, units = run["lo"], run["hi"], "reduced"
    else:
        lo, hi, units = env.k(run["gas"], run["units"], run["lo"]), env.k(run["gas"], run["units"], run["hi"]), "si"
    lines = [
        "[species]",
        f"mass = {gen.ELECTRON_MASS!r}",
        f"charge = {spec['charge']!r}",
        "spin_degeneracy = 2",
        f"density = {gen.DENSITY!r}",
        f"temperature = {spec['temperature']!r}",
        f"statistics = {spec['statistics']}",
        "",
        "[sweep]",
        f"k_min = {lo!r}",
        f"k_max = {hi!r}",
        f"n_points = {run['n_points']}",
        "spacing = linear",
        f"units = {units}",
        "branches = " + ", ".join(run["branches"]),
    ]
    if "oracle" in run:
        oracle = run["oracle"]
        lines += ["", "[oracle]", "enabled = true", f"subsample = {oracle['subsample']}",
                  f"n_v = {oracle['n_v']}", f"t_end = {oracle['t_end']!r}"]
    return "\n".join(lines) + "\n"


def _attempt(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except DisperseError as exc:
        return exc


def _dominant(env: Env, api, entries, timing: Timing) -> list:
    out = []
    for gas, k in entries:
        sp, sc = env.species(gas)
        res, elapsed = timing.time(_attempt, api.dominant_root, k, sp, sc)
        timing.dominant_ms.append(elapsed * 1e3)
        out.append((gas, k, res))
    return out


def _reference(sp, sc, k: float, rate: ComplexRate):
    """ExactQuadrature root at k, seeded from the root under test and then
    from the solver's own seed ladder."""
    seeds = [rate] + root_solver.first_point_seeds(k, BranchId.ExactQuadrature, sp, sc)
    for seed in seeds:
        try:
            return root_solver.solve_at_k(k, BranchId.ExactQuadrature, sp, sc, seed)
        except DisperseError:
            continue
    return None


def _check_dominant(env: Env, outputs, tally: checks.Tally) -> None:
    for gas, k, res in outputs:
        if isinstance(res, Exception):
            tally.add(f"fail:dominant_root_{type(res).__name__}")
            continue
        sp, sc = env.species(gas)
        ref = _reference(sp, sc, k, res.rate)
        if not sp.fully_degenerate:
            tally.add(checks.weak_status(res, ref, ABS_TOL, tally))
            continue
        reason = checks.exact_root(res, ABS_TOL)
        if reason is None and not res.region_flag and not _positive_zero(res.rate.eta):
            reason = "interior_eta_not_zero"
        if reason is None:
            reason = ("no_reference_root" if ref is None else checks.against_reference(
                res.rate.omega, res.rate.eta, ref.rate.omega, ref.rate.eta, checks.OMEGA_RTOL_DEGENERATE))
        tally.add("ok" if reason is None else "fail:" + reason)


def _positive_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) > 0


def _count_replay(results, out: ReplayOut, n: int = 1) -> None:
    """Count replayed roots; `results` is a list, or the exception that
    stood for all n of them."""
    if isinstance(results, Exception):
        out.roots += n
        out.nonconverged += n
        return
    for res in results:
        out.roots += 1
        if isinstance(res, Exception) or not res.converged:
            out.nonconverged += 1


# ---------------------------------------------------------------------------
# thermal_roots
# ---------------------------------------------------------------------------

class ThermalRoots:
    name = "thermal_roots"
    branches = (BranchId.ExactWeak, BranchId.ExactQuadrature)

    def gases(self, cycle) -> list[str]:
        return [entry["gas"] for entry in cycle["gases"]]

    def configs(self, env, cycle) -> list[str]:
        return []

    def cycle(self, env: Env, cycle: dict, api, timing: Timing):
        out = []
        before = timing.window_start()
        for entry in cycle["gases"]:
            gas = entry["gas"]
            sp, sc = env.species(gas)
            ks = [env.k(gas, "y", y) for y in entry["sweep_y"]]
            sweeps = {}
            for branch in self.branches:
                sweeps[branch], elapsed = timing.time(_attempt, api.sweep, ks, branch, sp, sc)
                timing.roots += len(ks)
                timing.root_wall += elapsed
                timing.mode_wall += elapsed
            timing.modes += len(ks)
            dominant = _dominant(env, api, [(gas, env.k(gas, "y", y)) for y in entry["dominant_y"]], timing)
            out.append({"gas": gas, "ks": ks, "sweeps": sweeps, "dominant": dominant})
        timing.window_end(before)
        return out

    def replay(self, env, cycle, api, tracer, timing: Timing, out: ReplayOut) -> None:
        for entry in self.cycle(env, cycle, api, timing):
            for results in entry["sweeps"].values():
                _count_replay(results, out, len(entry["ks"]))
            _count_replay([res for _, _, res in entry["dominant"]], out)

    def check(self, env: Env, outputs, tally: checks.Tally) -> None:
        for entry in outputs:
            weak = entry["sweeps"][BranchId.ExactWeak]
            quad = entry["sweeps"][BranchId.ExactQuadrature]
            for i in range(len(entry["ks"])):
                ref = None
                if isinstance(quad, Exception):
                    tally.add(f"fail:sweep_{type(quad).__name__}")
                else:
                    reason = checks.exact_root(quad[i], ABS_TOL)
                    tally.add("ok" if reason is None else "fail:" + reason)
                    ref = quad[i] if reason is None else None
                if isinstance(weak, Exception):
                    tally.add(f"fail:sweep_{type(weak).__name__}")
                else:
                    tally.add(checks.weak_status(weak[i], ref, ABS_TOL, tally))
            _check_dominant(env, entry["dominant"], tally)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def _read_csv(path: str):
    if not os.path.exists(path):
        return None
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _k_grid(cfg) -> np.ndarray:
    if cfg.spacing == "log":
        return np.geomspace(cfg.k_min, cfg.k_max, cfg.n_points)
    return np.linspace(cfg.k_min, cfg.k_max, cfg.n_points)


class _CliWorkload:
    command = ""

    def gases(self, cycle) -> list[str]:
        return sorted({run["gas"] for run in cycle["runs"]})

    def configs(self, env, cycle) -> list[str]:
        return [env.write_config(run, f"setup-{i}")[0] for i, run in enumerate(cycle["runs"])]

    def _dominant_entries(self, env, cycle) -> list[list]:
        """The cycle's dominant_root calls, split into one share per CLI
        call; each share runs after its CLI call, so the calls spread over
        the cycle."""
        entries = [(d["gas"], env.k(d["gas"], d["units"], d["x"])) for d in cycle["dominant"]]
        n = len(cycle["runs"])
        return [entries[i * len(entries) // n:(i + 1) * len(entries) // n] for i in range(n)]

    def cycle(self, env: Env, cycle: dict, api, timing: Timing):
        out = {"runs": [], "dominant": []}
        shares = self._dominant_entries(env, cycle)
        before = timing.window_start()
        for i, run in enumerate(cycle["runs"]):
            if self.window_per_call:
                before = timing.window_start()
            path, out_dir = env.write_config(run, f"run-{i}")
            code, elapsed = timing.time(cli.main, [self.command, "--config", path, "--output-dir", out_dir, "--quiet"])
            timing.cli_wall += elapsed
            timing.cli_calls += 1
            files = self.read_outputs(run, out_dir)
            timing.rows += sum(len(rows) for rows in files.values() if rows is not None)
            self.count(run, elapsed, timing)
            if self.window_per_call:
                timing.window_end(before)
            out["runs"].append({"run": run, "code": code, "files": files})
            out["dominant"] += _dominant(env, api, shares[i], timing)
        if not self.window_per_call:
            timing.window_end(before)
        return out

    def replay(self, env, cycle, api, tracer, timing: Timing, out: ReplayOut) -> None:
        shares = self._dominant_entries(env, cycle)
        for i, run in enumerate(cycle["runs"]):
            path, _ = env.write_config(run, f"replay-{i}")
            _, elapsed = timing.time(self._replay_call, path, api, tracer, out)
            timing.cli_wall += elapsed
            timing.cli_calls += 1
            _count_replay([res for _, _, res in _dominant(env, api, shares[i], timing)], out)

    def _replay_call(self, path, api, tracer, out: ReplayOut) -> None:
        with tracer.span(f"cli.replay_{self.command}"):
            self.replay_layers(api.load_config(path), api, out)

    def check(self, env: Env, outputs, tally: checks.Tally) -> None:
        for entry in outputs["runs"]:
            self.check_run(entry, tally)
        _check_dominant(env, outputs["dominant"], tally)


class DegenerateRun(_CliWorkload):
    name = "degenerate_run"
    command = "run"
    window_per_call = False

    def read_outputs(self, run, out_dir):
        return {branch: _read_csv(os.path.join(out_dir, f"{branch}.csv")) for branch in run["branches"]}

    def count(self, run, elapsed, timing: Timing) -> None:
        exact = [b for b in run["branches"] if b in EXACT]
        timing.roots += run["n_points"] * len(exact)
        timing.root_wall += elapsed
        if len(exact) == 2:  # ExactDegenerate and ExactQuadrature at every k
            timing.modes += run["n_points"]
            timing.mode_wall += elapsed

    def replay_layers(self, cfg, api, out: ReplayOut) -> None:
        ks = _k_grid(cfg)
        for branch in cfg.branches:
            results = _attempt(api.sweep, ks, branch, cfg.species, cfg.scales, cfg.solver, bohm_term=cfg.bohm_term)
            if branch.name in EXACT:
                _count_replay(results, out, len(ks))

    def check_run(self, entry, tally: checks.Tally) -> None:
        run, files = entry["run"], entry["files"]
        shape_ok = all(rows is not None and len(rows) == run["n_points"] for rows in files.values())
        if entry["code"] != 0:
            tally.add(f"fail:cli_run_exit_{entry['code']}")
        elif not shape_ok or any(row["converged"] != "true" for rows in files.values() for row in rows):
            tally.add("fail:cli_run_rows")
        else:
            tally.add("ok")
        deg, quad = files.get("ExactDegenerate"), files.get("ExactQuadrature")
        for branch in ("ExactDegenerate", "ExactQuadrature"):
            rows = files.get(branch)
            for i, row in enumerate(rows or []):
                reason = None
                if row["converged"] != "true":
                    reason = "nonconverged"
                elif not float(row["residual"]) < ABS_TOL:
                    reason = "residual_above_tol"
                elif branch == "ExactDegenerate" and float(row["r"]) < 1.0 and not _positive_zero(float(row["eta"])):
                    reason = "interior_eta_not_zero"
                elif branch == "ExactQuadrature" and deg is not None and len(deg) == len(quad):
                    omega, ref = float(row["omega"]), float(deg[i]["omega"])
                    if not abs(omega - ref) <= checks.OMEGA_RTOL_DEGENERATE * ref:
                        reason = "degenerate_vs_quadrature_omega"
                tally.add("ok" if reason is None else "fail:" + reason)


class OracleCompare(_CliWorkload):
    name = "oracle_compare"
    command = "compare"
    window_per_call = True

    def read_outputs(self, run, out_dir):
        rows = _read_csv(os.path.join(out_dir, "compare.csv"))
        if rows is not None:
            rows = [{key: float(value) for key, value in row.items()} for row in rows]
        return {"compare": rows}

    def count(self, run, elapsed, timing: Timing) -> None:
        timing.roots += run["n_points"]
        timing.root_wall += elapsed
        timing.modes += len(range(0, run["n_points"], run["oracle"]["subsample"]))
        timing.mode_wall += elapsed

    def replay_layers(self, cfg, api, out: ReplayOut) -> None:
        branch = next(b for b in cfg.branches if b.name in EXACT)
        results = _attempt(api.sweep, _k_grid(cfg), branch, cfg.species, cfg.scales, cfg.solver,
                           bohm_term=cfg.bohm_term)
        _count_replay(results, out, cfg.n_points)
        if isinstance(results, Exception):
            return
        alpha = None if cfg.species.fully_degenerate else cfg.scales.alpha
        for res in results[:: cfg.subsample]:
            try:
                run = api.evolve_mode(res.k, cfg.species, alpha, cfg.oracle, bohm_term=cfg.bohm_term, fit=False)
                omega, eta, resid = api.fit_omega_eta(run)
            except (DisperseError, ValueError):
                out.rel_err_omega.append(math.inf)
                continue
            out.rel_err_omega.append(abs(omega - res.rate.omega) / res.rate.omega)
            if abs(res.rate.eta) > checks.DAMPED * res.rate.omega:
                out.rel_err_eta.append(abs(eta - res.rate.eta) / abs(res.rate.eta))
            out.fit_residual.append(resid)

    def check_run(self, entry, tally: checks.Tally) -> None:
        run, rows = entry["run"], entry["files"]["compare"]
        expected = len(range(0, run["n_points"], run["oracle"]["subsample"]))
        if entry["code"] != 0:
            tally.add(f"fail:cli_compare_exit_{entry['code']}")
        elif rows is None or len(rows) != expected:
            tally.add("fail:cli_compare_rows")
        else:
            tally.add("ok")
        for row in rows or []:
            tally.add(checks.oracle_mode(row))


WORKLOADS = {wl.name: wl for wl in (ThermalRoots(), DegenerateRun(), OracleCompare())}
