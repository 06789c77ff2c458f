"""Run bookkeeping shared by every workload: samples, gates, RSS, provenance.

A :class:`Run` owns one benchmark invocation.  Workloads record timing
samples and counts into it, pass every correctness check through
:meth:`Run.check` (which feeds ``attempted`` / ``failed``), and finally
hand it the metric definitions to report.  Timings are reported as the
median of their samples; the detail record also carries the sample count
and the highest percentile that still has at least ten samples beyond it.

CPU-bound timings are host-speed scaled (see :class:`HostClock` and
:class:`KernelPacer`): on a shared host the same code runs up to about
1.6x slower for seconds to minutes at a time, which no run length
averages away.  Each such timing is read next to a fixed calibration
kernel that does not call the code under test, and is reported as the
time it would take on a host where the kernel takes its reference time
(``KERNELS``).  The unscaled medians are kept in the detail record.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Candidate percentiles for the tail figure, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with this many samples beyond it.
_TAIL_MIN_BEYOND = 10


# Kernels per host-speed reading (see host_kernel).
KERNELS_PER_READING = 3
# The BN254 scalar-field prime: the kernels' big integers are the size the
# field and curve code works with.
_KERNEL_MODULUS = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)


def _arith_work() -> None:
    """254-bit modular arithmetic, dict and list churn, numpy vectors."""
    x = 3
    for i in range(8000):
        x = (x * x + i) % _KERNEL_MODULUS
    table = {}
    for i in range(6000):
        table[(i, i & 7)] = [i, str(i)]
    total = 0
    for value in table.values():
        total += value[0]
    vec = np.arange(20000, dtype=np.int64)
    for _ in range(20):
        vec = (vec * 3 + 1) % 1_000_003


class _Element:
    """A small value object with operator methods, like a group element."""

    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v % _KERNEL_MODULUS

    def __add__(self, other: "_Element") -> "_Element":
        return _Element(self.v + other.v)

    def __mul__(self, k: int) -> "_Element":
        return _Element(self.v * k)


def _object_work() -> None:
    """Small-object interpreter work: method calls and allocation, field
    elements from SHA-256 digests, a JSON round trip, a keyed sort."""
    acc = _Element(1)
    for i in range(1500):
        digest = hashlib.sha256(i.to_bytes(4, "big")).digest()
        acc = acc + _Element(int.from_bytes(digest, "big")) * (i + 3)
    doc = {"rows": [
        {"k": str(i), "v": [i, i * 2, "x" * (i % 7)]} for i in range(300)
    ]}
    rows = json.loads(json.dumps(doc))["rows"]
    ordered = sorted(rows, key=lambda r: (len(r["v"][2]), r["k"]))
    ",".join(f"{r['k']}:{r['v'][1]}" for r in ordered)


# Kernel kind -> (work, its time on a quiet 2-core Intel Xeon cloud VM with
# Python 3.11 and numpy).  Scaled timings read as seconds on that host.
#
# Each timed step is scaled by the kernel whose slowdown matches its own,
# measured as the log-log slope of step time on kernel time over 70-100 s
# probes with another process contending half the time.  ``arith`` tracks
# compile_model on TINY, set-up and prove on either group and the
# real-curve verifier (slopes 0.86-1.13).  The simulated verifiers, the
# witness re-assignment and 3 ms SHAL:micro compiles are mostly interpreter
# and allocation overhead and slow 1.1-1.5 times as much as ``arith``;
# ``object`` tracks them (0.78-1.03).
KERNELS = {
    "arith": (_arith_work, 0.0080),
    "object": (_object_work, 0.0040),
}
# Every kernel time of this process by kind, for the detail record.
KERNEL_TIMES: Dict[str, List[float]] = {kind: [] for kind in KERNELS}


def calibration_kernel(kind: str) -> float:
    """Seconds taken by a fixed piece of work, 4-8 ms on a quiet host.

    The work calls nothing from the code under test, so a change there
    cannot move it.
    """
    work, _ = KERNELS[kind]
    # With the collector on, the allocations would set off collections
    # whose cost grows with the heap the workload holds.
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        work()
        elapsed = time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
    KERNEL_TIMES[kind].append(elapsed)
    return elapsed


def host_kernel(kind: str) -> float:
    """The host's current kernel time: the fastest of a few, so a brief
    interruption of one kernel does not count as a slow host."""
    return min(calibration_kernel(kind) for _ in range(KERNELS_PER_READING))


class HostClock:
    """Times consecutive steps, each bracketed by host kernel readings.

    :meth:`lap` returns ``(raw, scaled)`` seconds since the previous lap
    (or since construction).  ``scaled`` is ``raw`` times the reference
    time of the ``kind`` kernel over the mean of the readings just before
    and just after the step.  Kernel time falls outside every lap.

    The clock starts from a fully collected heap, so that a collection
    owed to earlier work does not land in a timed step.
    """

    def __init__(self, kind: str = "arith") -> None:
        gc.collect()
        self.kind = kind
        self._kernel = host_kernel(kind)
        self._began = time.perf_counter()

    def lap(self) -> Tuple[float, float]:
        raw = time.perf_counter() - self._began
        kernel = host_kernel(self.kind)
        reference = KERNELS[self.kind][1]
        scaled = raw * 2 * reference / (self._kernel + kernel)
        self._kernel = kernel
        self._began = time.perf_counter()
        return raw, scaled


class KernelPacer:
    """Times short rounds of work, each just after one calibration kernel
    of ``kind``.

    For steps of a few milliseconds or less, where bracketing each step
    with a host reading would cost many times the step.  :meth:`laps`
    scales every round by the median kernel time of the pacer's rounds, so
    host speed is read throughout the span the rounds cover.
    """

    def __init__(self, kind: str) -> None:
        gc.collect()
        self.kind = kind
        self.kernels: List[float] = []
        self.rounds: List[Tuple[float, int]] = []  # (seconds, calls)

    @property
    def spent(self) -> float:
        return sum(seconds for seconds, _ in self.rounds)

    def round(self, calls: Sequence[Callable[[], object]]) -> list:
        """Run ``calls`` as one timed round; returns their results."""
        self.kernels.append(calibration_kernel(self.kind))
        began = time.perf_counter()
        out = [call() for call in calls]
        self.rounds.append((time.perf_counter() - began, len(calls)))
        return out

    def laps(self) -> List[Tuple[float, float]]:
        """``(raw, scaled)`` seconds per call, one pair per round."""
        scale = KERNELS[self.kind][1] / statistics.median(self.kernels)
        return [
            (seconds / calls, seconds / calls * scale)
            for seconds, calls in self.rounds
        ]


def tail_percentile(values: Sequence[float]):
    """``(label, value)`` of the highest nearest-rank percentile that has at
    least ten samples beyond it, or ``(None, None)`` with too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in _TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= _TAIL_MIN_BEYOND:
            label = f"p{pct:g}"
            return label, ordered[rank - 1]
    return None, None


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between the two nearest
    samples; with a dozen samples the 95th is not simply the largest."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process in MiB (Linux reports KiB).

    With ``include_children`` the largest peak among reaped child
    processes is added, so a process pool's footprint shows.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path + contents), so a
    result from a checkout that is not a git repository still names its
    code."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int, group_backend: str) -> dict:
    from repro.field.backend import backend_name

    return {
        "workload": workload,
        "seed": seed,
        "group_backend": group_backend,
        "field_backend": backend_name(),
        "ZENO_FIELD_BACKEND": os.environ.get("ZENO_FIELD_BACKEND", "auto"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_digest": _source_digest(root / "src"),
    }


class Run:
    """One benchmark invocation: window, samples, gates and the report."""

    def __init__(
        self,
        root: Path,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        smoke: bool,
        corrupt: bool,
    ) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.corrupt = corrupt
        self.samples: Dict[str, List[float]] = {}
        # Unscaled samples of host-speed scaled timings, for the detail.
        self.raw_samples: Dict[str, List[float]] = {}
        self.raw_values: Dict[str, float] = {}
        self.values: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.group_backend = "unknown"
        # Untimed iterations before the window: the first pass over a
        # workload pays one-off costs (allocator growth, first-use caches).
        self.warmup = 0 if smoke else 1
        self._window_end: Optional[float] = None
        self._corrupted = False

    # -- measurement window ------------------------------------------------

    def start_window(self) -> None:
        self._window_end = time.perf_counter() + self.seconds

    def window_open(self, done: int) -> bool:
        """Loop condition for iterated workloads: true for the warm-up
        iteration, then while the window runs and until the first measured
        iteration; the window opens as the warm-up ends."""
        if done <= self.warmup:
            if done == self.warmup:
                self.start_window()
            return True
        return time.perf_counter() < self._window_end

    def measuring(self, done: int) -> bool:
        """True once iteration ``done`` is past the warm-up."""
        return done >= self.warmup

    # -- recording -----------------------------------------------------------

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def timing(self, name: str, lap: Tuple[float, float]) -> None:
        """Record a host-speed scaled timing from a ``HostClock`` lap."""
        raw, scaled = lap
        self.raw_samples.setdefault(name, []).append(float(raw))
        self.sample(name, scaled)

    def set_timing(self, name: str, lap: Tuple[float, float]) -> None:
        """Set a host-speed scaled timing computed from samples."""
        raw, scaled = lap
        self.raw_values[name] = float(raw)
        self.set(name, scaled)

    def set(self, name: str, value: float) -> None:
        self.values[name] = value if isinstance(value, int) else float(value)

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness-checked operation; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def maybe_corrupt(self, proof, backend):
        """With ``--corrupt``, return the first proof handed in with ``A``
        shifted by the generator (a proof that must not verify)."""
        if not self.corrupt or self._corrupted:
            return proof
        from repro.snark.proof import Proof

        self._corrupted = True
        return Proof(
            a=backend.add(proof.a, backend.g1_generator()), b=proof.b, c=proof.c
        )

    # -- reporting -----------------------------------------------------------

    def metric(self, name: str) -> float:
        if name in self.values:
            return self.values[name]
        samples = self.samples.get(name)
        if not samples:
            raise KeyError(f"no value recorded for metric {name!r}")
        return statistics.median(samples)

    def report(self, specs: Iterable[dict], default_zero: bool = False):
        """The contract result plus a detail record for the report line.

        With ``default_zero`` a metric the workload never recorded reads 0:
        for per-layer metrics that means no call crossed that layer's
        boundary in the benchmark process (the detail lists them).
        """
        metrics = {}
        detail = {}
        not_crossed = []
        for spec in specs:
            name = spec["name"]
            if default_zero and name not in self.values and not self.samples.get(name):
                not_crossed.append(name)
                metrics[name] = {"value": 0, "unit": spec["unit"]}
                continue
            value = self.metric(name)
            metrics[name] = {"value": value, "unit": spec["unit"]}
            if name in self.raw_values:
                detail[name] = {"raw_median": self.raw_values[name]}
            samples = self.samples.get(name)
            if name not in self.values and samples:
                label, tail = tail_percentile(samples)
                detail[name] = {"n": len(samples), "median": value}
                if label is not None:
                    detail[name][label] = tail
                raw = self.raw_samples.get(name)
                if raw:
                    detail[name]["raw_median"] = statistics.median(raw)
        if not_crossed:
            detail["not_crossed"] = not_crossed
        kernels = {
            kind: {
                "n": len(times),
                "median": statistics.median(times),
                "reference": KERNELS[kind][1],
            }
            for kind, times in KERNEL_TIMES.items() if times
        }
        if kernels:
            detail["calibration_kernel_s"] = kernels
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        return result, detail


def print_lines(run: Run, result: dict, detail: dict, prov: dict) -> None:
    """A readable table and a detail JSON line, then the contract line."""
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    width = max(len(n) for n in result["metrics"]) if result["metrics"] else 8
    print(f"# {run.workload}  seed={run.seed}  trace={int(run.trace)}  "
          f"backend={prov['group_backend']}  field={prov['field_backend']}",
          file=sys.stderr)
    for name, m in result["metrics"].items():
        extra = detail.get(name)
        tail = ""
        if extra and "n" in extra:
            tail = f"  (n={extra['n']}" + "".join(
                f", {k}={v:.6g}" for k, v in extra.items()
                if k.startswith("p")
            ) + ")"
        if extra and "raw_median" in extra:
            tail += f"  [unscaled {extra['raw_median']:.6g}]"
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}{tail}",
              file=sys.stderr)
    print(f"  {'error_rate':<{width}}  {error_rate:>14.6g} frac  "
          f"({run.failed}/{run.attempted})", file=sys.stderr)
    for failure in run.failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "detail": detail,
                      "error_rate": error_rate, "failures": run.failures}))
    print(json.dumps(result))
