"""Self-test for the benchmark, at smoke size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --smoke`` untraced and traced and
checks that the last line is the result object, that every metric named
in ``BENCHMARK.json`` is there with its unit, and that end-to-end values
are non-zero.  It then checks that a deliberately corrupted proof makes
each workload exit non-zero with ``correct: false``, and that a directory
holding only ``BENCHMARK.json`` and the benchmark exits non-zero without
printing a result.  Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT = 300


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke", *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def _check_result(result, specs, nonzero: bool):
    problems = []
    if result is None:
        return ["no JSON result on the last line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"missing {spec['name']}")
        elif got.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']} unit {got.get('unit')!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{spec['name']} value {got.get('value')!r}")
        elif nonzero and got["value"] == 0:
            problems.append(f"{spec['name']} is 0")
    extra = set(metrics) - {s["name"] for s in specs}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    failures = 0

    def report(name: str, problems) -> None:
        nonlocal failures
        if problems:
            failures += 1
            print(f"FAIL {name}: {'; '.join(problems)}")
        else:
            print(f"ok   {name}")

    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stderr = _run(root, workload, trace)
            problems = _check_result(result, spec[key], nonzero=trace == 0)
            if code != 0:
                problems.insert(0, f"exit {code}: {stderr.strip()[-400:]}")
            report(f"{workload} trace={trace}", problems)
        code, result, _ = _run(root, workload, 0, "--corrupt")
        problems = []
        if code == 0:
            problems.append("corrupted proof exited 0")
        if result is None or result.get("correct") is not False:
            problems.append("corrupted proof not reported as incorrect")
        report(f"{workload} corrupted proof", problems)

    bare = root / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code, result, _ = _run(bare, workloads[0], 0)
        problems = []
        if code == 0:
            problems.append("bare directory exited 0")
        if result is not None:
            problems.append("bare directory printed a result")
        report("bare directory without the program", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
