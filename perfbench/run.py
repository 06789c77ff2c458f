"""Benchmark entry point: one workload per process, results as JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bn254-shal-micro --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` repeats the SNARK calls through the tracing backend and
prints the per-layer metrics.  ``--workload all`` runs every workload,
each in a fresh process.  The last line of standard output is the result
object; the line before it carries provenance and sample details.  The
exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller inputs and a single set-up, for the self-test",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="corrupt the first proof; the run must then fail its checks",
    )
    return parser.parse_args(argv)


def _run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        code = subprocess.run(cmd).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: no BENCHMARK.json under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return _run_all(args)

    from measure import Run, print_lines, provenance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    run = Run(
        root, args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke, args.corrupt,
    )
    try:
        WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc()
        return 1
    metrics = spec["per_layer"] if run.trace else spec["end_to_end"]
    result, detail = run.report(metrics, default_zero=run.trace)
    prov = provenance(root, args.workload, args.seed, run.group_backend)
    print_lines(run, result, detail, prov)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
