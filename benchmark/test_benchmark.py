"""Tests of the benchmark itself: determinism of its inputs and counts, the
domains its inputs stay in, and its refusal to run without the source tree.

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
from checks import Tally  # noqa: E402
from disperse import dispersion_core  # noqa: E402
from measure import plain_pass, tail, trace_cycles  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Env, config_text  # noqa: E402

SEEDS = range(6)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first, second = gen.generate(workload, 7), gen.generate(workload, 7)
    assert first == second
    assert gen.digest(first) == gen.digest(second)
    assert gen.digest(gen.generate(workload, 8)) != gen.digest(first)
    if workload != "thermal_roots":
        env = Env(str(tmp_path))
        texts = [[config_text(env, run) for run in cycle["runs"]] for cycle in (first[0], second[0])]
        assert texts[0] == texts[1]


def _counts(tmp_path):
    """Exact counts of a traced probe cycle of every workload."""
    counts = {}
    for name, cycles in gen.probe_inputs(3).items():
        tally = Tally()
        m, _, _ = trace_cycles(WORKLOADS[name], Env(str(tmp_path)), cycles, 0.0, tally)
        counts[name] = {
            "statuses": dict(tally.statuses),
            "iterations_per_root": m["root_solver.iterations_per_root"],
            "residual_calls_per_root": m["root_solver.residual_calls_per_root"],
            "nonconverged": m["root_solver.nonconverged"],
            "seed_yield": m["root_solver.seed_yield"],
            "steps_per_mode": m["kinetic_oracle.steps_per_mode"],
            "rows_written": m["cli.rows_written"],
        }
    return counts


def test_same_seed_same_counts(tmp_path):
    first = _counts(tmp_path)
    assert first == _counts(tmp_path)
    assert first["oracle_compare"]["steps_per_mode"] == 4000
    assert first["thermal_roots"]["residual_calls_per_root"] > 0


def test_thermal_windows():
    for seed in SEEDS:
        for cycle in gen.generate("thermal_roots", seed):
            assert [entry["gas"] for entry in cycle["gases"]] == gen.THERMAL_GASES
            for entry in cycle["gases"]:
                ys = entry["sweep_y"]
                assert ys == sorted(ys) and len(set(ys)) == len(ys)
                assert 0.1 <= ys[0] and ys[-1] <= 0.45
                assert all(0.25 <= y <= 0.45 for y in entry["dominant_y"])


def test_degenerate_windows():
    for seed in SEEDS:
        for cycle in gen.generate("degenerate_run", seed):
            charged, neutral = cycle["runs"]
            assert 0.01 <= charged["lo"] < charged["hi"] <= 2.5
            assert 0.45 <= neutral["lo"] < neutral["hi"] <= 0.8
            for point in cycle["dominant"]:
                run = charged if point["gas"] == "degenerate_charged" else neutral
                assert run["lo"] <= point["x"] <= run["hi"]


def test_oracle_grid_covers_every_mode(tmp_path):
    """The oracle's default v_max covers omega/k, and k v_max t_end stays
    within n_v pi, for every mode of every generated compare config."""
    env = Env(str(tmp_path))
    for seed in SEEDS:
        for cycle in gen.generate("oracle_compare", seed)[:8]:
            for run in cycle["runs"]:
                sp, sc = env.species(run["gas"])
                lo, hi = (env.k(run["gas"], run["units"], run[end]) for end in ("lo", "hi"))
                ks = [lo + (hi - lo) * i / (run["n_points"] - 1) for i in range(run["n_points"])]
                for k in ks[:: run["oracle"]["subsample"]]:
                    if sp.fully_degenerate:
                        assert 0.9 <= k * sc.v_ch / sc.omega_p <= 1.2
                        omega = dispersion_core.omega_degenerate_bohm_gross(k, sc)
                        v_max = 1.5 * sc.v_ch
                    else:
                        assert 0.36 <= k * math.sqrt(sc.v_th_sq) / sc.omega_p <= 0.40
                        omega = dispersion_core.omega_weak_simple(k, sp, sc)
                        v_max = 8.0 * max(sc.v_ch, math.sqrt(sc.v_th_sq))
                    assert omega / k < v_max
                    t_end = run["oracle"]["t_end"] * 2.0 * math.pi / omega
                    assert k * v_max * t_end <= run["oracle"]["n_v"] * math.pi


def test_tail_leaves_ten_samples_beyond():
    value, percentile = tail([float(i) for i in range(1, 101)])
    assert (value, percentile) == (90.0, 90.0)
    with pytest.raises(RuntimeError):
        tail([1.0] * 10)


def test_residual_wrapper_seeing_no_calls_is_an_error():
    solve = {"name": "root_solver.solve_at_k", "start": 0.0, "end": 1.0, "parent": -1,
             "info": {"branch": "ExactWeak", "converged": True, "iterations": 2, "omega": 1.0}}
    with pytest.raises(RuntimeError, match="residual wrappers"):
        layer_metrics([solve], {"roots": 1})


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "thermal_roots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_counts_do_not_depend_on_run_length(tmp_path):
    """A run checks every input cycle however short its time, and wrapping
    round adds no items, so attempted and failed depend on the seed alone."""
    wl, env = WORKLOADS["degenerate_run"], Env(str(tmp_path))
    inputs = gen.generate("degenerate_run", 5)[:2]
    for cycle in inputs:
        for run in cycle["runs"]:
            run["n_points"] = 6
    counts = []
    for seconds, max_cycles, expected_cycles in ((0.0, None, 2), (60.0, 5, 5)):
        tally = Tally()
        _, cycles = plain_pass(wl, env, inputs, seconds, tally, max_cycles)
        assert cycles == expected_cycles
        counts.append((tally.attempted, tally.failed))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0
