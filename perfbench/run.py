"""The OPE pipeline benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-jsonl --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` is a separate run that installs timing shims
around the layers' public functions and reports the per-layer metrics.
Both check the program's outputs (the workloads' correctness gates) and
print, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is the run's stamp: host, library versions, seed and input
fingerprint.  The full result, and the spans of a traced run, are also
written under ``perfbench/out/``.

Exit status: 0 when every gate passed, 1 when a gate failed, 2 when the
program under test cannot be found or the run could not complete.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {
    "batch-jsonl": "wl_batch",
    "serve-mixed": "wl_serve",
    "live-flash-crowd": "wl_live",
    "fig7a-sweep": "wl_fig7a",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every input to a few seconds of work (self-tests only)",
    )
    parser.add_argument(
        "--perturb",
        action="store_true",
        help="corrupt one checked output so the gate must fail (self-tests only)",
    )
    return parser.parse_args(argv)


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _stamp(ctx, outcome) -> dict:
    import numpy

    from repro.kernels import get_backend

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "tiny": ctx.tiny,
        "host": {
            "cpus": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernels_backend": get_backend().name,
        },
        "gates": outcome.gates,
        **outcome.stamp,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program under test at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    units = _spec()[args.trace]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        perturb=args.perturb,
        work=work,
        env=harness.child_env(),
    )
    started = time.perf_counter()
    try:
        module = __import__(WORKLOADS[args.workload])
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ctx.trace:
        # Layers a workload never reaches read 0; the stamp names them.
        outcome.stamp["layers_not_exercised"] = sorted(set(units) - set(outcome.layers))
        outcome.layers = {**dict.fromkeys(units, 0.0), **outcome.layers}
    values = outcome.layers if ctx.trace else outcome.metrics
    if set(values) != set(units):
        print(
            "perfbench: metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}",
            file=sys.stderr,
        )
        return 2
    correct = bool(outcome.gates) and all(outcome.gates.values())
    stamp = _stamp(ctx, outcome)
    stamp["run_wall_s"] = time.perf_counter() - started
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(
        json.dumps({"stamp": stamp, "result": result, "samples": outcome.samples}) + "\n",
        encoding="utf-8",
    )
    if ctx.trace:
        (OUT / f"{name}-spans.json").write_text(
            json.dumps(
                {"fields": ["id", "parent", "name", "start", "end", "request"],
                 "spans": [s for s in outcome.spans if s is not None]}
            )
            + "\n",
            encoding="utf-8",
        )
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    if not correct:
        failed = sorted(gate for gate, ok in outcome.gates.items() if not ok)
        print(f"perfbench: correctness gates failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
