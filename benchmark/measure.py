"""The measured run (end-to-end metrics) and the traced run (per-layer
metrics) of one workload."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from checks import Tally
from tracing import Tracer, layer_metrics, plain_api, self_seconds
from workloads import WORKLOADS, ReplayOut, Timing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10   # samples the tail percentile must leave beyond it
TRACED_CYCLES = 8  # at most, so that the spans of the cheap workloads stay a few MB

END_TO_END_UNITS = {
    "setup_s": "s",
    "roots_per_s": "1/s",
    "dominant_root_ms_p50": "ms",
    "dominant_root_ms_tail": "ms",
    "modes_per_s": "1/s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = """
import time
start = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import disperse
from disperse import cli, quantum_stats
for spec in json.loads(sys.argv[2]):
    spec["statistics"] = quantum_stats.Statistics(spec["statistics"])
    quantum_stats.derive_scales(quantum_stats.SpeciesParams(**spec))
for path in sys.argv[3:]:
    cli.load_config(path)
print(time.perf_counter() - start)
"""


class Setup:
    """Samples of the set-up wall: `import disperse`, then derive_scales per
    species and load_config per config, in a fresh interpreter.  This is
    raw wall; the calibration kernel does not track import costs.  The
    samples are spread over the run, so their median is not the speed of
    one moment of the machine."""

    def __init__(self, species_specs: list[dict], config_paths: list[str], seconds: float):
        self.argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(species_specs), *config_paths]
        self.every = seconds / SETUP_REPEATS
        self.samples: list[float] = []
        self._sample()  # warms the file cache; dropped
        self.samples.clear()

    def _sample(self) -> None:
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def between_cycles(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_REPEATS and elapsed >= len(self.samples) * self.every:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self._sample()
        return self.samples


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile that leaves TAIL_BEYOND samples
    beyond it, and that percentile."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} dominant_root samples; the tail needs more than {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def plain_pass(wl, env, inputs, seconds, tally, max_cycles=None, setup=None) -> tuple[Timing, int]:
    """Whole cycles, in input order and wrapping round, until every input
    cycle is done and `seconds` of wall have passed, or `max_cycles` (not
    below len(inputs)) are done; set-up samples are taken between cycles.
    Every input is checked whatever the machine's speed, so the tally's
    counts depend on the inputs alone."""
    timing = Timing()
    api = plain_api()
    start = time.perf_counter()
    n = 0
    while True:
        outputs = wl.cycle(env, inputs[n % len(inputs)], api, timing)
        tally.start_cycle(n % len(inputs))
        wl.check(env, outputs, tally)
        n += 1
        elapsed = time.perf_counter() - start
        if setup is not None:
            setup.between_cycles(elapsed)
        if (elapsed >= seconds and n >= len(inputs)) or n == max_cycles:
            return timing, n


def measured(wl, env, inputs, seconds, seed):
    species = [dict(gen.GASES[gas], mass=gen.ELECTRON_MASS, spin_degeneracy=2, density=gen.DENSITY)
               for gas in wl.gases(inputs[0])]
    setup = Setup(species, wl.configs(env, inputs[0]), seconds)
    tally = Tally()
    timing, cycles = plain_pass(wl, env, inputs, seconds, tally, setup=setup)
    setup_samples = setup.finish()
    tail_ms, tail_pct = tail(timing.dominant_ms)
    roots_per_s, modes_per_s = timing.rates()
    values = {
        "setup_s": statistics.median(setup_samples),
        "roots_per_s": roots_per_s,
        "dominant_root_ms_p50": statistics.median(timing.dominant_ms),
        "dominant_root_ms_tail": tail_ms,
        "modes_per_s": modes_per_s,
        "failed_frac": tally.failed_frac(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "cycles": cycles,
        "setup_s_samples": setup_samples,
        "roots": timing.roots,
        "root_wall_s": timing.root_wall,
        "modes": timing.modes,
        "mode_wall_s": timing.mode_wall,
        "raw_wall_s": timing.raw_wall,
        "reference_wall_s": timing.wall,
        "rate_windows": len(timing.windows),
        "dominant_root_samples": len(timing.dominant_ms),
        "dominant_root_tail_percentile": tail_pct,
        "failed_frac_raw": tally.failed / tally.attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return tally, metrics, detail, []


def trace_cycles(wl, env, inputs, seconds, tally):
    """Plain pass over the first TRACED_CYCLES input cycles for `seconds`
    (at most TRACED_CYCLES cycles), then a traced replay of the same cycles.
    Returns the per-layer figures (None where the workload never entered a
    layer), the tracer and a summary."""
    inputs = inputs[:TRACED_CYCLES]
    plain, cycles = plain_pass(wl, env, inputs, seconds, tally, TRACED_CYCLES)
    tracer = Tracer()
    traced = Timing()
    out = ReplayOut()
    with tracer.patched() as api:
        for name in wl.gases(inputs[0]):
            api.derive_scales(env.species(name)[0])
        for i in range(cycles):
            wl.replay(env, inputs[i % len(inputs)], api, tracer, traced, out)
    outputs = {"roots": out.roots, "nonconverged": out.nonconverged, "eta_ratios": tally.eta_ratios,
               "rel_err_omega": out.rel_err_omega, "rel_err_eta": out.rel_err_eta,
               "fit_residual": out.fit_residual}
    m = layer_metrics(tracer.spans, outputs)
    m["cli.overhead_s"] = (plain.cli_wall - traced.cli_wall) / plain.cli_calls if plain.cli_calls else None
    m["cli.rows_written"] = plain.rows / cycles if plain.cli_calls else None
    m["trace.overhead_s"] = (traced.wall - plain.wall) / cycles
    return m, tracer, {"cycles": cycles, "plain_reference_wall_s": plain.wall,
                       "traced_reference_wall_s": traced.wall, "spans": len(tracer.spans),
                       "self_raw_s": self_seconds(tracer.spans)}


def traced(wl, env, inputs, seconds, seed):
    """Per-layer figures of the workload.  A layer the workload never calls
    is measured on the probe: one small cycle of another workload
    (gen.probe_inputs)."""
    tally = Tally()
    m, tracer, detail = trace_cycles(wl, env, inputs, seconds / 2.0, tally)
    from_probe = []
    probes = gen.probe_inputs(seed)
    for name in gen.WORKLOADS:
        missing = [key for key, value in m.items() if value is None]
        if not missing:
            break
        if name == wl.name:
            continue
        probe_tally = Tally()
        pm, _, _ = trace_cycles(WORKLOADS[name], env, probes[name], 0.0, probe_tally)
        if not probe_tally.correct:
            raise RuntimeError(f"probe {name} failed its checks: {probe_tally.unexpected()}")
        for key in missing:
            if pm[key] is not None:
                m[key] = pm[key]
                from_probe.append(f"{key} <- {name}")
    missing = [key for key, value in m.items() if value is None]
    if missing:
        raise RuntimeError(f"no measurement for {missing}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        units = {item["name"]: item["unit"] for item in json.load(handle)["per_layer"]}
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in units.items()}
    detail["from_probe"] = from_probe
    return tally, metrics, detail, tracer.spans
