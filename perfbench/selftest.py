"""Self-tests for the benchmark.

    python3 perfbench/selftest.py

For every workload, at tiny input sizes:

* an untraced and a traced run exit 0, print the result object as their
  last line, and name exactly the metrics of ``BENCHMARK.json`` with
  its units;
* in the traced run, the per-layer self times plus ``obs.other_s`` add
  up to ``obs.traced_wall_s``;
* a ``--perturb`` run, which corrupts one output a correctness gate
  checks (one per workload: a float moved by one ulp, or for fig7a one
  sequential summary), exits 1 with ``"correct": false``.

Finally the benchmark must refuse to run, with a non-zero exit and no
result, from a directory that holds only ``BENCHMARK.json`` and this
directory.  Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    ]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def _check_result(result, trace: int) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in expected}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != units:
        problems.append(f"metric names/units differ: {sorted(set(got) ^ set(units))}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']}")
    if trace:
        sys.path.insert(0, str(HERE))
        sys.path.insert(0, str(ROOT / "src"))
        from shims import SCALE

        metrics = result["metrics"]
        total = metrics["obs.other_s"]["value"] + sum(
            metrics[name]["value"] / factor for name, factor in set(SCALE.values())
        )
        wall = metrics["obs.traced_wall_s"]["value"]
        if not math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"self times add up to {total}, traced wall is {wall}")
    return problems


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, stderr = _run(ROOT, workload, trace)
            problems = [f"exit {code}: {stderr[-500:]}"] if code or result is None else (
                _check_result(result, trace)
            )
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
        code, result, _ = _run(ROOT, workload, 0, "--perturb")
        if code != 1 or result is None or result["correct"]:
            failures.append(f"{workload}: perturbed output passed its gate (exit {code})")
        print(f"{workload}: checked", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result, _ = _run(bare, WORKLOADS[0], 0)
        if code == 0 or result is not None:
            failures.append("ran without the program under test")
    finally:
        shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
