"""Spans around the calls into each layer, recorded from outside the package.

A Tracer keeps spans in memory as (name, start, end, parent, info); run.py
writes them out when the benchmark ends.  `Tracer.patched()` wraps, for its
duration, the names the package looks up at call time:

* `disperse.root_solver.solve_at_k` and the three residuals, which
  `root_solver` reaches through its own module globals;
* `disperse.dispersion_core.scaled_erfc` (called by `residual_weak`);
* `disperse.kinetic_oracle.reduced_fz` and `reduced_fz_derivative`;
* `disperse.cli.derive_scales` (called by `load_config`).

Calls the benchmark makes itself go through `Tracer.api`, whose functions
open a span and call the package's public function.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

from disperse import cli, dispersion_core, kinetic_oracle, quantum_stats, root_solver

EXACT = {"ExactWeak", "ExactQuadrature", "ExactDegenerate"}
ROOT_SOLVER_SPANS = {"root_solver.sweep", "root_solver.dominant_root", "root_solver.solve_at_k"}


# the public functions the workloads call themselves: attribute, module, span name
_API = [
    ("derive_scales", quantum_stats, "quantum_stats.derive_scales"),
    ("sweep", root_solver, "root_solver.sweep"),
    ("dominant_root", root_solver, "root_solver.dominant_root"),
    ("load_config", cli, "cli.load_config"),
    ("evolve_mode", kinetic_oracle, "kinetic_oracle.evolve_mode"),
    ("fit_omega_eta", kinetic_oracle, "kinetic_oracle.fit_omega_eta"),
]


def plain_api() -> SimpleNamespace:
    """The public functions the workloads call, untraced."""
    return SimpleNamespace(**{attr: getattr(module, attr) for attr, module, _ in _API})


def _solve_info(args, kwargs, out):
    return {"branch": args[1].name, "converged": out.converged, "iterations": out.iterations,
            "omega": out.rate.omega}


def _solve_error_info(args, kwargs, exc):
    info = {"branch": args[1].name, "converged": False}
    partial = getattr(exc, "result", None)
    if partial is not None:
        info["iterations"] = partial.iterations
    return info


def _quadrature_info(args, kwargs, out):
    return {"degenerate": args[3] is None}


def _evolve_info(args, kwargs, out):
    return {"steps": len(out.density) - 1}


class Tracer:
    """Spans of one traced replay; `api` holds the traced public functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.api = SimpleNamespace(**{
            attr: self.wrap(getattr(module, attr), name, _evolve_info if attr == "evolve_mode" else None)
            for attr, module, name in _API
        })

    def _open(self, name) -> dict:
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else -1, "info": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own, such as one replayed CLI call."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, func, name, describe=None, describe_error=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = func(*args, **kwargs)
            except Exception as exc:
                rec["info"]["error"] = type(exc).__name__
                if describe_error is not None:
                    rec["info"].update(describe_error(args, kwargs, exc))
                raise
            finally:
                self._close(rec)
            if describe is not None:
                rec["info"].update(describe(args, kwargs, out))
            return out

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        targets = [
            (root_solver, "solve_at_k", "root_solver.solve_at_k", _solve_info, _solve_error_info),
            (root_solver, "residual_weak", "dispersion_core.residual_weak", None, None),
            (root_solver, "residual_quadrature", "dispersion_core.residual_quadrature", _quadrature_info, None),
            (root_solver, "residual_degenerate", "dispersion_core.residual_degenerate", None, None),
            (dispersion_core, "scaled_erfc", "quantum_stats.scaled_erfc", None, None),
            (kinetic_oracle, "reduced_fz", "quantum_stats.reduced_fz", None, None),
            (kinetic_oracle, "reduced_fz_derivative", "quantum_stats.reduced_fz", None, None),
            (cli, "derive_scales", "quantum_stats.derive_scales", None, None),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in targets]
        try:
            for module, attr, name, describe, describe_error in targets:
                setattr(module, attr, self.wrap(getattr(module, attr), name, describe, describe_error))
            yield self.api
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def _dur(rec) -> float:
    return rec["end"] - rec["start"]


def _mean(values):
    return statistics.fmean(values) if values else None


def layer_metrics(spans: list[dict], outputs: dict) -> dict:
    """Per-layer figures from one traced replay.

    `outputs` carries what the results say and spans cannot: the ExactWeak /
    ExactQuadrature eta ratios, non-converged roots and oracle fit errors.
    A value is None when the replay never entered the layer.
    """
    children: dict[int, list[dict]] = {}
    for rec in spans:
        children.setdefault(rec["parent"], []).append(rec)

    def kids(index, prefix):
        return [rec for rec in children.get(index, []) if rec["name"].startswith(prefix)]

    def has_ancestor(rec, names):
        parent = rec["parent"]
        while parent >= 0:
            if spans[parent]["name"] in names:
                return True
            parent = spans[parent]["parent"]
        return False

    def named(name):
        return [rec for rec in spans if rec["name"] == name]

    indexed = list(enumerate(spans))
    exact = [(i, rec) for i, rec in indexed
             if rec["name"] == "root_solver.solve_at_k" and rec["info"].get("branch") in EXACT]
    residual_kids = {i: kids(i, "dispersion_core.residual_") for i, _ in exact}
    n_residual = sum(len(v) for v in residual_kids.values())
    if exact and n_residual == 0:
        raise RuntimeError("the residual wrappers saw no calls while exact roots were solved; "
                           "root_solver no longer looks the residuals up under the wrapped names")
    if outputs.get("roots", 0) and not exact:
        raise RuntimeError("the solve_at_k wrapper saw no calls while roots were returned")

    m: dict[str, float | None] = {}
    m["quantum_stats.derive_scales_ms"] = _ms(_mean([_dur(r) for r in named("quantum_stats.derive_scales")]))
    m["quantum_stats.scaled_erfc_us"] = _us(_mean([_dur(r) for r in named("quantum_stats.scaled_erfc")]))
    fz = named("quantum_stats.reduced_fz")
    m["quantum_stats.reduced_fz_ms"] = _ms(2.0 * sum(_dur(r) for r in fz) / len(fz)) if fz else None

    res = [rec for rec in spans if rec["name"].startswith("dispersion_core.residual_")]
    quad = [r for r in res if r["name"] == "dispersion_core.residual_quadrature"]
    m["dispersion_core.residual_weak_us"] = _us(_mean([_dur(r) for r in res if r["name"].endswith("_weak")]))
    m["dispersion_core.residual_quadrature_thermal_us"] = _us(
        _mean([_dur(r) for r in quad if not r["info"]["degenerate"]]))
    m["dispersion_core.residual_degenerate_us"] = _us(
        _mean([_dur(r) for r in res if r["name"].endswith("_degenerate")]))
    m["dispersion_core.residual_quadrature_degenerate_us"] = _us(
        _mean([_dur(r) for r in quad if r["info"]["degenerate"]]))
    outer_solver = [r for r in spans if r["name"] in ROOT_SOLVER_SPANS
                    and not has_ancestor(r, ROOT_SOLVER_SPANS)]
    solver_time = sum(_dur(r) for r in outer_solver)
    residual_time = sum(_dur(r) for r in res if has_ancestor(r, ROOT_SOLVER_SPANS))
    m["dispersion_core.busy_share"] = residual_time / solver_time if solver_time > 0 else None
    ratios = outputs.get("eta_ratios", [])
    m["dispersion_core.weak_quadrature_eta_ratio"] = statistics.median(ratios) if ratios else None

    for branch in ("ExactWeak", "ExactQuadrature", "ExactDegenerate"):
        m[f"root_solver.solve_ms_{branch}"] = _ms(
            _mean([_dur(r) for _, r in exact if r["info"]["branch"] == branch]))
    iterations = [r["info"]["iterations"] for _, r in exact if "iterations" in r["info"]]
    m["root_solver.iterations_per_root"] = _mean(iterations)
    m["root_solver.residual_calls_per_root"] = n_residual / len(exact) if exact else None
    self_times = [_dur(r) - sum(_dur(c) for c in residual_kids[i]) for i, r in exact]
    m["root_solver.self_ms_per_root"] = _ms(_mean(self_times))
    tried = distinct = 0
    for i, rec in indexed:
        if rec["name"] != "root_solver.dominant_root":
            continue
        seeds = kids(i, "root_solver.solve_at_k")
        tried += len(seeds)
        found: list[float] = []
        for seed in seeds:
            omega = seed["info"].get("omega")
            if "error" not in seed["info"] and all(abs(omega - o) > 1e-8 * omega for o in found):
                found.append(omega)
        distinct += len(found)
    m["root_solver.seed_yield"] = distinct / tried if tried else None
    m["root_solver.nonconverged"] = outputs.get("nonconverged", 0) if outputs.get("roots", 0) else None

    evolve = named("kinetic_oracle.evolve_mode")
    steps = [r["info"]["steps"] for r in evolve if "steps" in r["info"]]
    m["kinetic_oracle.steps_per_mode"] = _mean(steps)
    m["kinetic_oracle.us_per_step"] = (
        _us(sum(_dur(r) for r in evolve) / sum(steps)) if steps else None)
    m["kinetic_oracle.evolve_s"] = _mean([_dur(r) for r in evolve])
    m["kinetic_oracle.fit_ms"] = _ms(_mean([_dur(r) for r in named("kinetic_oracle.fit_omega_eta")]))
    for key in ("rel_err_omega_max", "rel_err_eta_max", "fit_residual_max"):
        values = outputs.get(key.rsplit("_", 1)[0], [])
        m[f"kinetic_oracle.{key}"] = max(values) if values else None
    replays = [(i, r) for i, r in indexed if r["name"].startswith("cli.replay_")]
    replay_time = sum(_dur(r) for _, r in replays)
    oracle_time = sum(_dur(c) for i, _ in replays for c in kids(i, "kinetic_oracle."))
    m["kinetic_oracle.replay_share"] = oracle_time / replay_time if evolve and replay_time else None

    m["cli.load_config_ms"] = _ms(_mean([_dur(r) for r in named("cli.load_config")]))
    return m


def self_seconds(spans: list[dict]) -> dict:
    """Self time (span time minus the time of its child spans) summed per
    module, the part of a span name before the first dot."""
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        out[rec["name"].split(".")[0]] += _dur(rec)
        if rec["parent"] >= 0:
            out[spans[rec["parent"]]["name"].split(".")[0]] -= _dur(rec)
    return dict(out)


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def _us(seconds):
    return None if seconds is None else seconds * 1e6
