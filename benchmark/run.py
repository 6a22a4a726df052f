"""Benchmark of the disperse package: three workloads, measured end to end
and, in a separate traced run, per layer.

    python3 benchmark/run.py --workload thermal_roots --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` there and exits with code 2 when that tree is missing.  The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it are the full report, which is
also written, with the spans of a traced run, under `.benchmark_out/`.
See benchmark/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def src_line_count() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "disperse" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checkout's package, ahead of any installed copy
    threads_at_entry = os.environ.pop("DISPERSE_THREADS", None)
    import disperse
    import numpy

    if Path(disperse.__file__).resolve().parent != SRC / "disperse":
        print(f"error: imported disperse from {disperse.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import checks
    import gen
    import measure
    from workloads import WORKLOADS, Env

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = gen.generate(args.workload, args.seed)
    work_dir = ROOT / ".benchmark_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = Env(str(work_dir))
        for gas in wl.gases(inputs[0]):
            env.species(gas)
        run = measure.traced if args.trace else measure.measured
        tally, metrics, detail, spans = run(wl, env, inputs, args.seconds, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": {
            "seed": args.seed,
            "inputs_digest": gen.digest(inputs),
            "src_lines": src_line_count(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "disperse_threads": "unset" if threads_at_entry is None
            else f"unset by the benchmark (was {threads_at_entry!r})",
        },
        "seconds": args.seconds,
        "detail": detail,
        "checks": {"attempted": tally.attempted, "failed": tally.failed, "known_defects": tally.known(),
                   "unexpected": tally.unexpected()},
        "known_defects": {name: text for name, text in checks.KNOWN_DEFECTS.items() if name in tally.known()},
        "metrics": metrics,
    }
    out_dir = ROOT / ".benchmark_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if spans:
        with open(out_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for rec in spans:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
