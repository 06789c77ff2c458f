"""MSM benchmark: the curve engine on BN254 G1 and G2 against the naive MSM.

Standalone harness (NOT collected by pytest).  It times the real-curve
backend — one curve engine for both groups — on random scalars, checks
every result against :func:`repro.ec.msm.msm_naive` (affine
double-and-add, the independent reference), and records where it ran::

    PYTHONPATH=src python benchmarks/msm_bench.py \
        --groups g1,g2 --sizes 16,64,256 --repeat 3 --out BENCH_msm.json

Columns per ``(group, n)`` row, each the best of ``--repeat`` runs:

* ``naive_s``       — ``msm_naive`` (run once; it is the reference)
* ``msm_s``         — ``backend.msm(points, scalars)``
* ``parallel_s``    — ``backend.msm(..., parallelism=P)`` when ``P > 1``
* ``table_build_s`` / ``table_query_s`` — ``backend.precompute_msm(points)``
  and one query of the table
* ``scalar_mul_s``  — ``backend.scalar_mul`` of one point by one scalar

The harness uses only the ``GroupBackend`` API, so the same script run in
an older checkout measures that checkout's engines.  ``--baseline FILE``
reads such a run and adds ``before_*`` columns and ``speedup_*`` ratios
(before / after) to every matching row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.ec.backend import RealBN254Backend
from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.msm import msm_naive

GROUPS = {"g1": BN254_G1, "g2": BN254_G2}
TIMED = ("msm_s", "parallel_s", "table_query_s", "scalar_mul_s")


def make_points(backend, group, n: int):
    """n distinct points G, 2G, 3G, ... as prefix sums (one add each)."""
    g = group.generator
    points, acc = [], g
    for _ in range(n):
        points.append(acc)
        acc = backend.add(acc, g)
    return points


def best_of(fn, repeat: int):
    """(best wall seconds, result) over ``repeat`` runs."""
    best, result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_row(backend, name: str, n: int, repeat: int, parallelism: int,
              seed: int) -> dict:
    group = GROUPS[name]
    rng = random.Random(seed + n)
    points = make_points(backend, group, n)
    scalars = [rng.randrange(1, group.order) for _ in range(n)]
    row: dict = {"group": name, "n": n}
    results = {}

    row["naive_s"], reference = best_of(
        lambda: msm_naive(points, scalars, group=group), 1
    )
    row["msm_s"], results["msm"] = best_of(
        lambda: backend.msm(points, scalars), repeat
    )
    if parallelism > 1:
        row["parallel_s"], results["parallel"] = best_of(
            lambda: backend.msm(points, scalars, parallelism=parallelism),
            repeat,
        )
        row["parallelism"] = parallelism
    row["table_build_s"], table = best_of(
        lambda: backend.precompute_msm(points), 1
    )
    row["table_query_s"], results["table"] = best_of(
        lambda: table.msm(scalars), repeat
    )
    row["scalar_mul_s"], results["scalar_mul"] = best_of(
        lambda: backend.scalar_mul(points[-1], scalars[-1]), repeat
    )
    expected_mul = group.scalar_mul(points[-1], scalars[-1])
    if results.pop("scalar_mul") != expected_mul:
        raise AssertionError(f"{name} scalar_mul disagrees with affine")
    for variant, value in results.items():
        if value != reference:
            raise AssertionError(
                f"{name} {variant} disagrees with msm_naive at n={n}"
            )
    row["matches_naive"] = True
    return row


def provenance() -> dict:
    from repro.field.backend import backend_name

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "group_backend": RealBN254Backend.name,
        "field_backend": backend_name(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


def merge_baseline(report: dict, baseline: dict) -> None:
    """Add the baseline run's timings as ``before_*`` columns."""
    before = {(r["group"], r["n"]): r for r in baseline["rows"]}
    report["before"] = {
        k: baseline.get(k)
        for k in ("commit", "group_backend", "field_backend", "nproc", "python")
    }
    for row in report["rows"]:
        old = before.get((row["group"], row["n"]))
        if old is None:
            continue
        for col in TIMED + ("table_build_s",):
            if col in row and col in old:
                row[f"before_{col}"] = old[col]
                if col in TIMED:
                    row[f"speedup_{col[:-2]}"] = round(old[col] / row[col], 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", default="g1,g2", help="g1, g2 or both")
    parser.add_argument(
        "--sizes", default="16,64,256", help="comma-separated MSM sizes"
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of runs")
    parser.add_argument(
        "--parallelism", type=int, default=2,
        help="process count for the parallel column (<=1 skips it)",
    )
    parser.add_argument("--seed", type=int, default=0xBE27C4)
    parser.add_argument(
        "--baseline", default=None,
        help="JSON from a run of this script in an older checkout",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args(argv)

    backend = RealBN254Backend()
    report = {"bench": "msm", "repeat": args.repeat}
    report.update(provenance())
    report["rows"] = []
    for name in args.groups.split(","):
        for n in (int(s) for s in args.sizes.split(",") if s):
            row = bench_row(
                backend, name, n, args.repeat, args.parallelism, args.seed
            )
            report["rows"].append(row)
            print(
                f"{name} n={n:>5d}  naive {row['naive_s']:.3f}s"
                f"  msm {row['msm_s']:.4f}s"
                f"  table {row['table_query_s']:.4f}s"
                f"  scalar_mul {row['scalar_mul_s']:.5f}s",
                flush=True,
            )
    if args.baseline:
        merge_baseline(report, json.loads(Path(args.baseline).read_text()))

    from repro.core.metrics import peak_rss_bytes

    report["peak_rss_bytes"] = peak_rss_bytes()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
