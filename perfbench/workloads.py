"""The three benchmark workloads.

Each workload builds its inputs from the run seed, runs through the
public library surface (``repro.core.compiler``, ``repro.snark.groth16``,
``repro.aggregate``, ``repro.serve``), checks every output against an
independent reference, and records samples into the :class:`Run`.

With ``run.trace`` the workload additionally repeats its SNARK calls
through :class:`spans.TracingBackend` with the same randomness, asserts
the traced outputs are byte-identical, and records per-layer figures.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import statistics
import threading
import time
from typing import Dict, List, Sequence

from measure import HostClock, KernelPacer, Run, peak_rss_mb, percentile
from spans import PROVE_MSM_ORDER, Phase, SpanLog, TracingBackend

# Fixed weight seed: the run seed varies the images, never the network.
WEIGHT_SEED = 0
CRS_SEED = 0xBE7C4
# Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3
# Open-loop arrival rate for serve-mini-mix, well below the closed-loop
# throughput (about 29 jobs/s on a 2-core host), so latency is not backlog.
OPEN_LOOP_RATE = 12.0
# Jobs per block of the mix.  A fixed 3:1 share keeps the median job a
# SHAL:mini job and the 95th percentile an LCS:mini job on every seed; an
# even or random share would put the median between the two.
SERVE_MIX = {"SHAL": 3, "LCS": 1}
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
# Share of the window for the closed loop; the open loop takes the rest.
CLOSED_LOOP_SHARE = 0.4
# Blocks of the mix whose per-job work is repeated in the benchmark process
# for serve's compile_s and prove_s (96 jobs).
WARM_KEY_BLOCKS = 24
# Served proofs verified per verify_s round (a simulated verify takes
# well under a millisecond).
SERVE_VERIFY_CHUNK = 25
# A simulated verify_aggregate takes about a millisecond, and on a 2-core
# cloud host calls that short run about 1.6x slower in episodes of a
# fraction of a second.  So each aggregate is re-verified for this many
# seconds after its verify, in rounds that each follow one calibration
# kernel (measure.KernelPacer): the samples spread over the window and
# each is scaled by the host speed read around it.
AGG_RECHECK_SPAN = 0.1
# Verifies per re-check round, about 7 ms.
RECHECK_ROUND = 5
# SHAL:micro compiles in about 3 ms, short enough to land in one slow
# episode: each compile_s sample on bn254 is the mean over this many fresh
# images, about 0.1 s.
MICRO_COMPILE_BATCH = 32


def _images(model, seed: int, offset: int = 0):
    """The seeded image stream: image ``i`` depends only on (seed, i)."""
    from repro.nn.data import synthetic_images

    for i in itertools.count(offset):
        yield synthetic_images(model.input_shape, n=1, seed=(seed << 24) + i)[0]


def _reference_logits(model, image) -> List[int]:
    return [int(v) for v in model.forward(image)]


def _tampered(publics: Sequence[int], modulus: int) -> List[int]:
    bad = [int(v) for v in publics]
    bad[0] = (bad[0] + 1) % modulus
    return bad


def _tracer(inner):
    log = SpanLog()
    return log, TracingBackend(inner, log)


def _overhead(run: Run, untraced: float, traced: float) -> None:
    run.sample("trace.untraced_s", untraced)
    run.sample("trace.traced_s", traced)


def _lap_sum(*laps):
    """The ``(raw, scaled)`` sum of several laps."""
    return sum(lap[0] for lap in laps), sum(lap[1] for lap in laps)


def _timed(call):
    """``(call(), seconds)``."""
    began = time.perf_counter()
    out = call()
    return out, time.perf_counter() - began


def _recheck(run: Run, label: str, verify, span: float) -> None:
    """Re-verify for ``span`` seconds in rounds of ``RECHECK_ROUND`` calls;
    each round's time per call is a ``verify_s`` sample and a rejection
    fails the run."""
    pacer = KernelPacer("object")
    verdicts = []
    while not pacer.rounds or pacer.spent < span:
        verdicts += pacer.round([verify] * RECHECK_ROUND)
    for lap in pacer.laps():
        run.timing("verify_s", lap)
    run.check(all(verdicts), f"{label} verifies on every re-check")


def _compile_fresh(compiler, model, images, clock: HostClock, reps: int = 1):
    """Compile the next ``reps`` images of the stream.

    Returns the last image, its artifact and the mean compile seconds as a
    ``(raw, scaled)`` lap of ``clock``.
    """
    batch = [next(images) for _ in range(reps)]
    clock.lap()
    for image in batch:
        artifact = compiler.compile_model(model, image)
    raw, scaled = clock.lap()
    return image, artifact, (raw / reps, scaled / reps)


def _finish_overhead(run: Run) -> None:
    untraced = sum(run.samples.get("trace.untraced_s", []))
    traced = sum(run.samples.get("trace.traced_s", []))
    if untraced > 0:
        run.set("trace.overhead_frac", (traced - untraced) / untraced)


def _record_setup_phase(run: Run, phase: Phase, eval_s: float) -> None:
    for group in ("g1", "g2"):
        key = f"ec.scalar_mul.{group}"
        run.set(f"{key}_calls", phase.calls.get(key, 0))
        run.set(f"{key}_s", phase.seconds.get(key, 0.0))
    run.set("snark.qap.setup_eval_s", eval_s)
    run.set("snark.groth16.setup_unattributed_s", phase.unattributed(eval_s))


def _record_prove_phases(
    run: Run, phases: Sequence[Phase], witness_s: float, quotient_s: float
) -> None:
    """One sample per inference, summed over its prove phases."""
    for label in PROVE_MSM_ORDER:
        key = f"ec.msm.{label}"
        run.sample(f"{key}_s", sum(p.seconds.get(key, 0.0) for p in phases))
        run.sample(f"{key}_nonzero", sum(p.units.get(key, 0) for p in phases))
    run.sample("snark.qap.witness_s", witness_s)
    run.sample("snark.qap.quotient_s", quotient_s)
    run.sample(
        "snark.groth16.prove_unattributed_s",
        sum(p.unattributed() for p in phases) - witness_s - quotient_s,
    )


def _record_verify_phase(run: Run, phase: Phase) -> None:
    run.sample("ec.pairing_s", phase.seconds.get("ec.pairing", 0.0))
    run.sample("ec.pairing.pairs", phase.units.get("ec.pairing", 0))


def _record_compile(run: Run, artifact) -> None:
    run.sample("core.compiler.generate_s", artifact.generate.wall_time)
    run.sample("core.compiler.circuit_s", artifact.compute.wall_time)
    run.set("core.compiler.lc_terms", artifact.compute.lc_terms)
    run.set("core.compiler.variables", artifact.num_variables)
    report = artifact.lookup
    run.set("lookup.lookups", report.total_lookups if report else 0)
    run.set(
        "lookup.constraints", report.total_lookup_constraints if report else 0
    )


def _qap_setup_eval(cs, field, rng: random.Random) -> float:
    """Time ``qap_evaluations_at`` on ``cs`` standalone: the QAP share of
    ``groth16.setup`` (the same sparse walk at another point)."""
    from repro.snark.qap import Domain, qap_evaluations_at

    domain = Domain.for_size(max(cs.num_constraints, 2), field)
    tau = rng.randrange(1, field.modulus)
    began = time.perf_counter()
    qap_evaluations_at(cs, domain, tau)
    return time.perf_counter() - began


def _qap_prove_phases(cs, field):
    """Time the witness-evaluation and quotient calls of ``groth16.prove``
    standalone on ``cs``; returns ``(witness_s, quotient_s)``."""
    from repro.snark.qap import (
        Domain,
        quotient_coefficients,
        witness_polynomial_evals,
    )

    domain = Domain.for_size(max(cs.num_constraints, 2), field)
    csr = cs.to_csr()
    began = time.perf_counter()
    evals = witness_polynomial_evals(cs, domain, csr=csr)
    mid = time.perf_counter()
    quotient_coefficients(cs, domain, csr=csr, evals=evals)
    return mid - began, time.perf_counter() - mid


# -- real curve, one Groth16 instance per inference ----------------------------------


def bn254_shal_micro(run: Run) -> None:
    """SHAL:micro on the real curve: setup (about 10 s), then per image:
    compile, prove, verify."""
    from repro.core.compiler import ZenoCompiler, zeno_options
    from repro.ec.backend import RealBN254Backend
    from repro.nn.models import build_model
    from repro.snark import groth16
    from repro.snark.serialize import (
        serialize_proof,
        serialize_proving_key,
        serialize_verifying_key,
    )

    inner = RealBN254Backend()
    run.group_backend = inner.name
    field = inner.scalar_field
    model = build_model("SHAL", scale="micro", seed=WEIGHT_SEED)
    compiler = ZenoCompiler(zeno_options())
    images = _images(model, run.seed)
    base = compiler.compile_model(model, next(images))
    setup_seed = run.seed * 7919 + 1

    def untraced_setup():
        return groth16.setup(base.cs, inner, random.Random(setup_seed))

    if not run.trace:
        for _ in range(1 if run.smoke else SETUP_REPS):
            clock = HostClock()
            keys = untraced_setup()
            run.timing("setup_s", clock.lap())
    else:
        log, traced = _tracer(inner)
        # The traced set-up runs between two untraced ones, so drift over
        # the run cancels in the overhead.
        keys, before = _timed(untraced_setup)
        with log.phase("setup") as phase:
            tkeys = groth16.setup(base.cs, traced, random.Random(setup_seed))
        keys, after = _timed(untraced_setup)
        _overhead(run, (before + after) / 2, phase.wall)
        run.check(
            serialize_verifying_key(tkeys.verifying_key)
            == serialize_verifying_key(keys.verifying_key)
            and serialize_proving_key(tkeys.proving_key)
            == serialize_proving_key(keys.proving_key),
            "traced setup keys are byte-identical to untraced",
        )
        del tkeys
        eval_s = _qap_setup_eval(base.cs, field, random.Random(setup_seed))
        _record_setup_phase(run, phase, eval_s)
    run.set("snark.qap.domain_size", keys.stats["domain_size"])
    run.set("constraints", base.num_constraints)
    pk, vk = keys.proving_key, keys.verifying_key
    del base  # the measured images compile their own systems

    done = 0
    last = None
    while run.window_open(done):
        image, artifact, compile_s = _compile_fresh(
            compiler, model, images, HostClock("object"), MICRO_COMPILE_BATCH
        )
        clock = HostClock()
        sink: Dict[str, float] = {}
        prove_seed = run.seed * 1_000_003 + done
        proof = groth16.prove(
            pk, artifact.cs, inner, random.Random(prove_seed), phase_sink=sink
        )
        prove_s = clock.lap()
        publics = artifact.public_inputs()
        checked = run.maybe_corrupt(proof, inner)
        ok = groth16.verify(vk, publics, checked, inner)
        verify_s = clock.lap()
        run.check(ok, f"proof {done} verifies")
        run.check(
            artifact.public_outputs_signed()
            == _reference_logits(model, image),
            f"proof {done} public logits equal model.forward(image)",
        )
        if run.measuring(done):
            run.timing("compile_s", compile_s)
            run.timing("prove_s", prove_s)
            run.timing("verify_s", verify_s)
            run.timing("proof_e2e_s", _lap_sum(compile_s, prove_s, verify_s))
        if run.trace:
            _record_compile(run, artifact)
            with log.phase("prove") as phase:
                tsink: Dict[str, float] = {}
                tproof = groth16.prove(
                    pk, artifact.cs, traced, random.Random(prove_seed),
                    phase_sink=tsink,
                )
            run.check(
                serialize_proof(tproof) == serialize_proof(proof),
                f"traced proof {done} is byte-identical to untraced",
            )
            # The first prove of a system also builds its cached CSR
            # structure, so the overhead compares against a second,
            # equally warm untraced prove.
            _, warm = _timed(
                lambda: groth16.prove(
                    pk, artifact.cs, inner, random.Random(prove_seed)
                )
            )
            _overhead(run, warm, phase.wall)
            _record_prove_phases(
                run, [phase], tsink.get("witness", 0.0),
                tsink.get("quotient", 0.0),
            )
            with log.phase("verify") as vphase:
                run.check(
                    groth16.verify(vk, publics, tproof, traced),
                    f"traced verify of proof {done}",
                )
            _record_verify_phase(run, vphase)
            _overhead(run, verify_s[0], vphase.wall)
        last = (publics, proof)
        done += 1

    publics, proof = last
    run.check(
        not groth16.verify(vk, _tampered(publics, field.modulus), proof, inner),
        "proof with an altered public input is rejected",
    )
    _single_client_latency(run)
    run.set("proof_bytes", len(serialize_proof(proof)))
    run.set("peak_rss_mb", peak_rss_mb())
    _finish_overhead(run)


def _single_client_latency(run: Run) -> None:
    """Throughput and latency of one client proving back to back, from the
    per-inference end-to-end times: the re-checks and reference checks are
    the benchmark's, not the program's, so they do not count."""
    e2e = run.samples["proof_e2e_s"]
    run.set("jobs_per_s", len(e2e) / sum(e2e))
    run.samples["job_latency_p50_s"] = list(e2e)
    run.set("job_latency_p95_s", percentile(e2e, 95))


# -- per-layer aggregation ----------------------------------------------------------


def sim_tiny_agg(run: Run) -> None:
    """TINY:micro with strict lookups, proved per layer and folded.

    The per-layer setups depend only on the circuit structure and the CRS
    seed, so they are made once in set-up and reused warm for every image.
    """
    from repro.aggregate import (
        AggregateProof,
        fold,
        prove_instance,
        prove_split,
        setup_split,
        verify_aggregate,
    )
    from repro.core.compiler import ZenoCompiler, zeno_options
    from repro.ec.backend import SimulatedBackend
    from repro.nn.models import build_model
    from repro.snark import groth16
    from repro.snark.serialize import serialize_proof, serialize_verifying_key

    inner = SimulatedBackend()
    run.group_backend = inner.name
    field = inner.scalar_field
    model = build_model("TINY", scale="micro", seed=WEIGHT_SEED)
    compiler = ZenoCompiler(zeno_options(gadget_mode="strict", relu_mode="lookup"))
    images = _images(model, run.seed)
    base = compiler.compile_model(model, next(images))
    base_split = base.split(mode="hashed")

    if not run.trace:
        for _ in range(1 if run.smoke else SETUP_REPS):
            clock = HostClock()
            setups = setup_split(base_split, inner, crs_seed=CRS_SEED)
            run.timing("setup_s", clock.lap())
    else:
        log, traced = _tracer(inner)
        def untraced_setup():
            return setup_split(base_split, inner, crs_seed=CRS_SEED)

        setups, before = _timed(untraced_setup)
        with log.phase("setup") as phase:
            tsetups = setup_split(base_split, traced, crs_seed=CRS_SEED)
        setups, after = _timed(untraced_setup)
        _overhead(run, (before + after) / 2, phase.wall)
        run.check(
            [serialize_verifying_key(s.verifying_key) for s in tsetups]
            == [serialize_verifying_key(s.verifying_key) for s in setups],
            "traced per-layer keys are byte-identical to untraced",
        )
        del tsetups
        rng = random.Random(CRS_SEED)
        eval_s = sum(
            _qap_setup_eval(inst.cs, field, rng) for inst in base_split.instances
        )
        _record_setup_phase(run, phase, eval_s)
        run.set(
            "snark.qap.domain_size",
            sum(s.stats["domain_size"] for s in setups),
        )
        run.set("aggregate.instances", base_split.num_instances)

    span = 0.0 if run.trace else (0.01 if run.smoke else AGG_RECHECK_SPAN)
    done = 0
    last = None
    while run.window_open(done):
        image = next(images)
        clock = HostClock()
        artifact = compiler.compile_model(model, image)
        compile_s = clock.lap()
        split = artifact.split(mode="hashed")
        split_s = clock.lap()
        proofs = prove_split(split, setups, inner, crs_seed=CRS_SEED)
        prove_s = clock.lap()
        checked = [run.maybe_corrupt(proofs[0], inner)] + proofs[1:]
        agg = fold(split, setups, [checked], crs_seed=CRS_SEED)
        fold_s = clock.lap()
        verdict = verify_aggregate(agg, inner)
        verify_s = clock.lap()
        reference = _reference_logits(model, image)
        run.check(verdict.ok, f"aggregate {done} verifies: {verdict.reason}")
        run.check(
            artifact.public_outputs_signed() == reference,
            f"aggregate {done} public logits equal model.forward(image)",
        )
        half = field.modulus // 2
        claimed = [
            v - field.modulus if v > half else v
            for _, v in sorted(verdict.globals_out.items())
        ]
        run.check(
            claimed == reference,
            f"aggregate {done} attests the reference logits",
        )
        if run.measuring(done):
            run.timing("compile_s", compile_s)
            run.timing("prove_s", prove_s)
            if not span:
                run.timing("verify_s", verify_s)
            run.timing(
                "proof_e2e_s",
                _lap_sum(compile_s, split_s, prove_s, fold_s, verify_s),
            )
        if run.measuring(done) and span:
            _recheck(
                run, f"aggregate {done}",
                lambda: verify_aggregate(agg, inner).ok, span,
            )
        if run.trace:
            _record_compile(run, artifact)
            run.sample("aggregate.split_s", split_s[0])
            run.sample("aggregate.fold_s", fold_s[0])
            run.sample("aggregate.verify_s", verify_s[0])
            run.set("aggregate.pairings", verdict.num_pairings)
            phases = []
            layer_times = []
            for k in range(split.num_instances):
                with log.phase("prove") as phase:
                    layer_proof = prove_instance(
                        split, k, setups[k], traced, crs_seed=CRS_SEED
                    )
                phases.append(phase)
                layer_times.append(phase.wall)
                run.check(
                    serialize_proof(layer_proof) == serialize_proof(proofs[k]),
                    f"prove_instance({k}) matches prove_split on image {done}",
                )
            run.sample("aggregate.layer_prove_max_s", max(layer_times))
            run.sample("aggregate.layer_prove_sum_s", sum(layer_times))
            # As for single proofs: compare against an equally warm
            # (cached-CSR) untraced pass.
            _, warm = _timed(
                lambda: prove_split(split, setups, inner, crs_seed=CRS_SEED)
            )
            witness_s = quotient_s = 0.0
            for inst in split.instances:
                w, q = _qap_prove_phases(inst.cs, field)
                witness_s += w
                quotient_s += q
            _record_prove_phases(run, phases, witness_s, quotient_s)
            with log.phase("verify") as vphase:
                run.check(
                    verify_aggregate(agg, traced).ok,
                    f"traced verify of aggregate {done}",
                )
            _record_verify_phase(run, vphase)
            _overhead(run, warm, sum(layer_times))
            _overhead(run, verify_s[0], vphase.wall)
        last = (split, proofs, agg)
        done += 1
        del artifact

    split, proofs, agg = last
    bad = AggregateProof.from_json(agg.to_json())
    publics = bad.inferences[0]["publics"]
    publics[-1][0] = str((int(publics[-1][0]) + 1) % field.modulus)
    run.check(
        not verify_aggregate(bad, inner).ok,
        "aggregate artifact with an altered public is rejected",
    )
    layer0 = split.instances[0].cs.public_values()
    run.check(
        not groth16.verify(
            setups[0].verifying_key, _tampered(layer0, field.modulus),
            proofs[0], inner,
        ),
        "layer proof with an altered public input is rejected",
    )
    _single_client_latency(run)
    run.set("constraints", base.num_constraints)
    run.set("proof_bytes", len(agg.to_json().encode()))
    run.set("peak_rss_mb", peak_rss_mb())
    _finish_overhead(run)


# -- proving service ----------------------------------------------------------------


class _ServeJobs:
    """Jobs submitted to the service and what the reference says of them."""

    def __init__(self, run: Run, models: dict) -> None:
        self.streams = {
            abbr: _images(model, run.seed, offset=10_000)
            for abbr, model in models.items()
        }
        self._shuffle = random.Random(run.seed)
        self._block: List[str] = []
        self._lock = threading.Lock()
        self.submitted: List[tuple] = []  # (job_id, abbr, image)

    def next_job(self):
        """The next model in the mix, drawn from seeded shuffled blocks so
        every run serves the same proportions."""
        with self._lock:
            if not self._block:
                self._block = [
                    abbr for abbr, share in SERVE_MIX.items()
                    for _ in range(share)
                ]
                self._shuffle.shuffle(self._block)
            abbr = self._block.pop()
            return abbr, next(self.streams[abbr])

    def submit(self, service, abbr: str, image) -> str:
        job_id = service.submit(abbr, image, scale="mini", seed=WEIGHT_SEED)
        with self._lock:
            self.submitted.append((job_id, abbr, image))
        return job_id


def _warm_service(jobs: _ServeJobs, store_dir: str):
    """Start a service and warm every (worker, key) pair.

    Each round submits two full batches per key at once, so both idle
    workers take one; rounds repeat until every worker has compiled every
    key (or a cap is hit — later cold batches then show in the hit rate).
    """
    from repro.serve import ProvingService, ServiceConfig

    service = ProvingService(ServiceConfig(
        max_workers=SERVE_WORKERS,
        backend="simulated",
        store_dir=store_dir,
        store_entries=100_000,
    ))
    per_round = 2 * service.config.max_batch
    for _ in range(6):
        for abbr in SERVE_MIX:
            ids = [
                jobs.submit(service, abbr, next(jobs.streams[abbr]))
                for _ in range(per_round)
            ]
            for job_id in ids:
                service.result(job_id, timeout=120)
        if service.telemetry.key_cache_misses >= SERVE_WORKERS * len(SERVE_MIX):
            break
    return service


class _ServedKeys:
    """Verifying keys fetched from the service's artifact store, by key."""

    def __init__(self, store) -> None:
        self.store = store
        self._keys: Dict[str, object] = {}
        self._lock = threading.Lock()

    def get(self, result):
        from repro.snark.serialize import deserialize_verifying_key

        key = result.store_keys["vk"]
        with self._lock:
            if key not in self._keys:
                self._keys[key] = deserialize_verifying_key(self.store.get(key))
            return self._keys[key]


class _BatchLog:
    """The phase times of every batch the service completes while
    ``recording``, by wrapping ``telemetry.record_batch`` on the instance
    (the service keeps only a bounded reservoir of them)."""

    def __init__(self, service) -> None:
        self.recording = False
        self.batches: List[tuple] = []  # (size, {phase: seconds})
        record = service.telemetry.record_batch

        def record_batch(size, cold, phases, *args, **kwargs):
            if self.recording:
                self.batches.append((size, dict(phases)))
            return record(size, cold, phases, *args, **kwargs)

        service.telemetry.record_batch = record_batch

    def per_job_mean(self, phase: str) -> float:
        """Worker seconds per job in ``phase``: the phase's total over the
        jobs of every recorded batch."""
        jobs = sum(size for size, _ in self.batches)
        return sum(p.get(phase, 0.0) for _, p in self.batches) / jobs


def _warm_key_work(run: Run, provers: dict, inner) -> None:
    """A warm worker's per-job work, done in this process before the
    service starts: witness re-assignment, each just after one ``object``
    kernel, then prove, each just after one ``arith`` kernel (see
    ``measure.KERNELS``), for ``WARM_KEY_BLOCKS`` blocks of the mix, key by
    key.

    ``compile_s`` and ``prove_s`` are the mean per-job time over the mix,
    taken from each key's median.  (The median over the mixed jobs would
    sit in the tail of the larger key's share.)  Worker-side times cannot
    be host-speed scaled, since a reading in the parent while a worker runs
    measures the contention between the two.
    """
    from repro.snark import groth16

    modulus = inner.scalar_field.modulus
    totals = {"compile_s": [0.0, 0.0], "prove_s": [0.0, 0.0]}
    for abbr, share in SERVE_MIX.items():
        prover = provers[abbr]
        pacers = {"compile_s": KernelPacer("object"), "prove_s": KernelPacer("arith")}
        images = _images(prover.model, run.seed, offset=30_000)
        for k, image in enumerate(itertools.islice(images, share * WARM_KEY_BLOCKS)):
            pacers["compile_s"].round([lambda: prover.assign_image(image)])
            (proof,) = pacers["prove_s"].round([
                lambda: prover.prove(backend=inner, rng=random.Random(k))
            ])
            publics = prover.cs.public_values()
            logits = [v - modulus if v > modulus // 2 else v for v in map(int, publics)]
            run.check(
                groth16.verify(
                    prover.warm_setup().verifying_key, publics, proof, inner
                )
                and logits == _reference_logits(prover.model, image),
                f"warm-key proof {k} of {abbr} verifies with the reference logits",
            )
        for name, pacer in pacers.items():
            laps = pacer.laps()
            for i in (0, 1):
                totals[name][i] += share * statistics.median(lap[i] for lap in laps)
    jobs = sum(SERVE_MIX.values())
    for name, (raw, scaled) in totals.items():
        run.set_timing(name, (raw / jobs, scaled / jobs))


def _closed_loop(run: Run, service, jobs: _ServeJobs, seconds: float):
    """``SERVE_CLIENTS`` threads, each waiting for its reply before it
    submits the next job.  The replies are verified after the loop, so
    the clients add no CPU load of their own to the 2-worker service.

    Returns ``(job ids, latencies, elapsed)``.
    """
    from repro.serve.service import JobFailedError

    deadline = time.monotonic() + seconds
    out_ids: List[str] = []
    latencies: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()

    def client() -> None:
        while time.monotonic() < deadline:
            abbr, image = jobs.next_job()
            began = time.monotonic()
            job_id = jobs.submit(service, abbr, image)
            try:
                service.result(job_id, timeout=120)
            except (JobFailedError, TimeoutError) as exc:
                with lock:
                    errors.append(f"{job_id}: {exc}")
                continue
            latency = time.monotonic() - began
            with lock:
                out_ids.append(job_id)
                latencies.append(latency)

    began = time.monotonic()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 180)
    elapsed = time.monotonic() - began
    for error in errors:
        run.check(False, f"closed-loop job failed: {error}")
    return out_ids, latencies, elapsed


def _open_loop(run: Run, service, jobs: _ServeJobs, seconds: float):
    """Submit on a fixed schedule; latency counts from each due time.

    Returns ``(latencies, lateness)``.
    """
    count = max(1, int(OPEN_LOOP_RATE * seconds))
    began = time.monotonic()
    due: Dict[str, float] = {}
    lateness: List[float] = []
    for k in range(count):
        due_at = began + k / OPEN_LOOP_RATE
        pause = due_at - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        abbr, image = jobs.next_job()
        lateness.append(time.monotonic() - due_at)
        due[jobs.submit(service, abbr, image)] = due_at
    service.wait_all(timeout=180)
    latencies = []
    for job_id, due_at in due.items():
        job = service.job(job_id)
        if job.finished_at is not None and job.state.value == "done":
            latencies.append(job.finished_at - due_at)
    return latencies, lateness


def serve_mini_mix(run: Run) -> None:
    """A SHAL:mini / LCS:mini mix through a 2-worker ProvingService."""
    from repro.core.lang.types import Privacy
    from repro.core.reuse.batch import BatchProver
    from repro.ec.backend import SimulatedBackend
    from repro.nn.models import build_model
    from repro.snark import groth16
    from repro.snark.qap import Domain
    from repro.snark.serialize import deserialize_proof

    inner = SimulatedBackend()
    run.group_backend = inner.name
    field = inner.scalar_field
    models = {abbr: build_model(abbr, "mini", seed=WEIGHT_SEED) for abbr in SERVE_MIX}
    # The workers' circuits, compiled here the way a worker compiles a key,
    # for the constraint count and the compiler's per-layer figures.
    provers = {
        abbr: BatchProver(
            model, next(_images(model, run.seed, offset=20_000)),
            image_privacy=Privacy.PRIVATE, weights_privacy=Privacy.PUBLIC,
        )
        for abbr, model in models.items()
    }
    run.set("constraints", sum(p.cs.num_constraints for p in provers.values()))
    # The keys a warm worker holds, for the per-job work repeated here.
    for prover in provers.values():
        prover.warm_setup(inner, random.Random(CRS_SEED))
    _warm_key_work(run, provers, inner)

    store_root = run.root / ".perfbench_tmp" / f"serve-{os.getpid()}"
    jobs = _ServeJobs(run, models)
    service = None
    try:
        reps = 1 if (run.trace or run.smoke) else SETUP_REPS
        for rep in range(reps):
            if service is not None:
                service.shutdown(drain=True, timeout=120)
            jobs.submitted.clear()  # job ids restart in each service
            clock = HostClock()
            service = _warm_service(jobs, str(store_root / f"rep{rep}"))
            run.timing("setup_s", clock.lap())
        batch_log = _BatchLog(service)
        run.start_window()
        batch_log.recording = True
        closed_ids, closed_lat, closed_elapsed = _closed_loop(
            run, service, jobs, run.seconds * CLOSED_LOOP_SHARE
        )
        service.wait_all(timeout=180)
        batch_log.recording = False
        open_lat, lateness = _open_loop(
            run, service, jobs, run.seconds * (1 - CLOSED_LOOP_SHARE)
        )
        stats = service.stats()
        timings = [service.job(job_id) for job_id in closed_ids]
        closed = set(closed_ids)
        keys = _ServedKeys(service.store)
        served = []  # (job id, verifying key, publics, proof)
        for job_id, abbr, image in jobs.submitted:
            job = service.job(job_id)
            if not run.check(job.state.value == "done", f"{job_id} completed"):
                continue
            result = job.result
            run.check(result.verified, f"{job_id} verified by its worker")
            run.check(
                result.logits == _reference_logits(models[abbr], image),
                f"{job_id} carries the reference logits",
            )
            proof = run.maybe_corrupt(deserialize_proof(result.proof), inner)
            served.append((job_id, keys.get(result), result.public_inputs, proof))
            run.sample("proof_bytes", len(result.proof))
        # A client's verify of each served proof against its stored key,
        # timed in chunks while the service is idle.
        pacer = KernelPacer("object")
        for first in range(0, len(served), SERVE_VERIFY_CHUNK):
            chunk = served[first:first + SERVE_VERIFY_CHUNK]
            verdicts = pacer.round([
                lambda vk=vk, publics=publics, proof=proof:
                    groth16.verify(vk, publics, proof, inner)
                for _, vk, publics, proof in chunk
            ])
            for (job_id, *_), ok in zip(chunk, verdicts):
                run.check(ok, f"{job_id} proof verifies against its stored key")
        for lap in pacer.laps():
            run.timing("verify_s", lap)
        if run.trace:
            log, traced = _tracer(inner)
            for job_id, vk, publics, proof in served:
                if job_id not in closed:
                    continue
                _, seconds = _timed(
                    lambda: groth16.verify(vk, publics, proof, inner)
                )
                with log.phase("verify") as vphase:
                    groth16.verify(vk, publics, proof, traced)
                _record_verify_phase(run, vphase)
                _overhead(run, seconds, vphase.wall)
        _, vk, publics, proof = served[-1]
        run.check(
            not groth16.verify(
                vk, _tampered(publics, field.modulus), proof, inner
            ),
            "served proof with an altered public input is rejected",
        )
    finally:
        if service is not None:
            service.shutdown(drain=True, timeout=120)
        shutil.rmtree(store_root, ignore_errors=True)
        try:
            store_root.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for latency in closed_lat:
        run.sample("proof_e2e_s", latency)
    for latency in open_lat:
        run.sample("job_latency_p50_s", latency)
    run.set("job_latency_p95_s", percentile(open_lat, 95))
    run.set("jobs_per_s", len(closed_ids) / closed_elapsed)
    run.set("peak_rss_mb", peak_rss_mb(include_children=True))
    if run.trace:
        # Per-key compiler figures, summed over the mix's keys.
        keyed = provers.values()
        run.set("core.compiler.generate_s", sum(p.stats.generate_time for p in keyed))
        run.set("core.compiler.circuit_s", sum(p.stats.circuit_time for p in keyed))
        run.set("core.compiler.lc_terms", sum(p.result.lc_terms for p in keyed))
        run.set("core.compiler.variables", sum(p.cs.num_variables for p in keyed))
        largest = max(p.cs.num_constraints for p in keyed)
        run.set("snark.qap.domain_size", Domain.for_size(max(largest, 2), field).size)
        # The service's own closed-loop figures, matching its service times.
        assign = batch_log.per_job_mean("assign")
        security = batch_log.per_job_mean("security")
        run.set("snark.qap.witness_s", batch_log.per_job_mean("witness"))
        run.set("snark.qap.quotient_s", batch_log.per_job_mean("quotient"))
        run.set("core.reuse.assign_s", assign)
        run.set("serve.worker_prove_s", security)
        queue_wait = [j.started_at - j.submitted_at for j in timings]
        run.set("serve.queue_wait_s", statistics.median(queue_wait))
        # Service time per job is a mean, like assign and prove, so that
        # service = assign + prove + dispatch overhead; a batch's span
        # counts once, shared by its jobs.
        batch_spans: Dict[int, tuple] = {}
        for j in timings:
            began, ended = batch_spans.get(
                j.result.batch_id, (j.started_at, j.finished_at)
            )
            batch_spans[j.result.batch_id] = (
                min(began, j.started_at), max(ended, j.finished_at)
            )
        service_s = sum(e - b for b, e in batch_spans.values()) / len(timings)
        run.set("serve.service_s", service_s)
        run.set("serve.dispatch_overhead_s", service_s - assign - security)
        run.set("serve.batch_size_mean", stats["batches"]["sizes"]["mean"])
        run.set("serve.key_cache_hit_rate", stats["key_cache"]["hit_rate"])
        run.set("serve.retries", stats["jobs"]["retries"])
        run.set("loadgen.lateness_s", max(lateness))
        _finish_overhead(run)


WORKLOADS = {
    "bn254-shal-micro": bn254_shal_micro,
    "sim-tiny-agg": sim_tiny_agg,
    "serve-mini-mix": serve_mini_mix,
}
