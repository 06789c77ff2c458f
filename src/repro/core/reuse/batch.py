"""Batch-specialized constraint-system sharing (§6.1).

"The constraint system is a description of the zkSNARK NN computation ...
the same computation applies to each image such that the constraint system
can be shared."  ZENO's batch mode runs Generate and Circuit Computation
**once**, then for each image only re-assigns witness values before
security computation — exactly the paper's design (ZEN's n=100 accuracy
scheme is the canonical workload, Fig. 14).

Re-assignment is driven by the *witness recipe* recorded during circuit
computation: an ordered log of ``(variable, descriptor)`` pairs describing
how each variable's value derives from a plaintext trace.  Re-proving a new
image therefore costs one plaintext forward pass plus ``O(num_variables)``
assignments — no gates, no LC expansion, no constraint emission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.circuit.compute import (
    CircuitComputer,
    ComputeOptions,
    ComputeResult,
)
from repro.core.circuit.gadgets import RANGE_OFFSET
from repro.core.lang.program import (
    ActLUTOp,
    DotLayerOp,
    EmbedOp,
    LayerNormOp,
    MatMulOp,
    RowScaleOp,
    ZkProgram,
    program_from_model,
)
from repro.core.lang.types import Privacy
from repro.nn.graph import INPUT, Model


@dataclass
class BatchStats:
    """Timing ledger comparing shared vs per-image compilation."""

    generate_time: float = 0.0
    circuit_time: float = 0.0
    setup_time: float = 0.0  # one-time Groth16 setup (warm_setup)
    assign_times: List[float] = field(default_factory=list)

    def shared_total(self) -> float:
        """Compilation cost with sharing: compile once + assign per image."""
        return self.generate_time + self.circuit_time + sum(self.assign_times)

    def unshared_total(self) -> float:
        """Compilation cost without sharing: compile every image."""
        n = max(len(self.assign_times), 1)
        return (self.generate_time + self.circuit_time) * n


class BatchProver:
    """Compile once, re-assign witnesses per image."""

    def __init__(
        self,
        model: Model,
        base_image: np.ndarray,
        image_privacy: Privacy = Privacy.PRIVATE,
        weights_privacy: Privacy = Privacy.PUBLIC,
        options: Optional[ComputeOptions] = None,
    ) -> None:
        self.model = model
        self.image_privacy = image_privacy
        self.weights_privacy = weights_privacy
        opts = options or ComputeOptions()
        opts.record_recipe = True
        self.options = opts
        self.stats = BatchStats()

        program = program_from_model(
            model, base_image, image_privacy, weights_privacy,
            relu_bits=opts.relu_bits,
        )
        from repro.core.lang.program import MaxPoolOp

        if any(isinstance(op, MaxPoolOp) for op in program.ops):
            raise NotImplementedError(
                "batch constraint-system sharing does not support MaxPool2d "
                "(its comparison-chain witnesses are not recipe-encoded); "
                "use AvgPool2d or per-image compilation"
            )
        computer = CircuitComputer(program, opts)
        generated = computer.generate()
        self.result: ComputeResult = computer.compute()
        if self.result.recipe is None:
            raise RuntimeError("witness recipe was not recorded")
        self.stats.generate_time = generated.wall_time
        self.stats.circuit_time = self.result.wall_time
        self._setup = None
        self._tables = None

    @property
    def cs(self):
        return self.result.cs

    # -- serving-path hooks -----------------------------------------------------------

    def warm_setup(self, backend=None, rng=None, precompute=True):
        """Run Groth16 setup once for the shared constraint system.

        The serving worker pool (:mod:`repro.serve.workers`) keeps one
        ``BatchProver`` warm per (model, profile); the setup — by far the
        most expensive per-key cost — is cached here so every subsequent
        job pays only assign + prove.

        With ``precompute`` (the default), fixed-base MSM tables are built
        over the CRS query vectors alongside the setup; ``self.tables``
        then serves every proof of the session without re-deriving
        window-shifted bases (see :class:`repro.ec.engine.FixedBaseTable`).
        """
        if self._setup is None:
            from repro.ec.backend import SimulatedBackend
            from repro.snark import groth16
            from repro.snark.keys import precompute_proving_tables

            backend = backend or SimulatedBackend()
            start = time.perf_counter()
            self._setup = groth16.setup(self.cs, backend, rng)
            if precompute:
                self._tables = precompute_proving_tables(
                    self._setup.proving_key, backend
                )
            self.stats.setup_time = time.perf_counter() - start
        return self._setup

    @property
    def tables(self):
        """Fixed-base CRS tables built by :meth:`warm_setup` (or ``None``)."""
        return self._tables

    def prove(
        self,
        image: Optional[np.ndarray] = None,
        backend=None,
        rng=None,
        parallelism: Optional[int] = None,
        phase_sink: Optional[Dict[str, float]] = None,
    ):
        """Prove the current witness (re-assigning ``image`` first if given).

        Bundles the whole warm path: cached setup + fixed-base tables from
        :meth:`warm_setup`, witness re-assignment via the recipe, and the
        parallel prover engine — the shared CSR structure is reused across
        images automatically (``to_csr`` only refreshes the dense ``z``).
        ``phase_sink`` accumulates per-phase prover seconds across calls.
        """
        from repro.ec.backend import SimulatedBackend
        from repro.snark import groth16

        backend = backend or SimulatedBackend()
        setup = self.warm_setup(backend)
        if image is not None:
            self.assign_image(image)
        return groth16.prove(
            setup.proving_key,
            self.cs,
            backend,
            rng,
            tables=self._tables,
            parallelism=parallelism,
            phase_sink=phase_sink,
        )

    # -- per-image witness assignment -------------------------------------------------

    def assign_image(self, image: np.ndarray) -> ZkProgram:
        """Re-trace the model on ``image`` and re-assign every variable.

        Returns the traced program (whose final logits are the new public
        inputs).  Raises if the recipe meets an unknown descriptor.
        """
        start = time.perf_counter()
        program = program_from_model(
            self.model,
            image,
            self.image_privacy,
            self.weights_privacy,
            relu_bits=self.options.relu_bits,
        )
        values: Dict[str, np.ndarray] = {
            INPUT: program.input_values.reshape(-1)
        }
        acc: Dict[str, np.ndarray] = {}
        relu_in: Dict[str, np.ndarray] = {}
        ops = {}
        # Transformer-op derived witnesses: one-hot selector inputs and
        # outputs (tag -> values), and LayerNorm's centered/normalized
        # intermediates — tags match the circuit lowering in compute.py.
        sel_in: Dict[str, tuple] = {}
        sel_out: Dict[str, np.ndarray] = {}
        ln: Dict[str, tuple] = {}
        for op in program.ops:
            values[op.output] = op.out_values.reshape(-1)
            ops[op.name] = op
            if hasattr(op, "acc_values") and op.acc_values is not None:
                acc[op.name] = op.acc_values
            if hasattr(op, "in_values") and op.in_values is not None:
                relu_in[op.name] = op.in_values
            if isinstance(op, ActLUTOp):
                from repro.lookup import get_table

                table = get_table(op.table_name)
                sel_in[op.name] = (op.in_values.reshape(-1), table.domain_lo)
                sel_out[op.name] = op.out_values.reshape(-1)
            elif isinstance(op, EmbedOp):
                sel_in[op.name] = (op.ids.reshape(-1), 0)
                sel_out[op.name] = op.out_values.reshape(-1)
            elif isinstance(op, LayerNormOp):
                from repro.lookup import get_table

                x = op.in_values.astype(np.int64)
                mean_acc = x.sum(axis=1)
                c = x - (mean_acc >> op.mean_shift)[:, None]
                var_acc = (c * c).sum(axis=1)
                var_q = var_acc >> op.var_shift
                y = get_table("rsqrt").apply(var_q)
                acc[f"{op.name}#mean"] = mean_acc
                acc[f"{op.name}#var"] = var_acc
                acc[f"{op.name}#out"] = (c * y[:, None]).reshape(-1)
                ln[op.name] = (c, y)
                sel_in[f"{op.name}#y"] = (var_q, 0)
                sel_out[f"{op.name}#y"] = y

        cs = self.cs
        for var, desc in self.result.recipe:
            kind = desc[0]
            if kind == "image":
                cs.assign(var, int(values[INPUT][desc[1]]))
            elif kind == "const":
                continue  # weights and BN parameters do not change per image
            elif kind == "out":
                _, name, idx, shift = desc
                cs.assign(var, int(acc[name][idx]) >> shift)
            elif kind == "rem":
                _, name, idx, shift = desc
                a = int(acc[name][idx])
                cs.assign(var, a - ((a >> shift) << shift))
            elif kind == "rem_bit":
                _, name, idx, shift, i = desc
                a = int(acc[name][idx])
                rem = a - ((a >> shift) << shift)
                cs.assign(var, (rem >> i) & 1)
            elif kind == "out_bit":
                _, name, idx, shift, i = desc
                out = (int(acc[name][idx]) >> shift) + RANGE_OFFSET
                cs.assign(var, (out >> i) & 1)
            elif kind == "sign":
                _, name, idx, _bits = desc
                cs.assign(var, 1 if int(relu_in[name][idx]) >= 0 else 0)
            elif kind == "relu_bit":
                _, name, idx, bits, i = desc
                shifted = int(relu_in[name][idx]) + (1 << (bits - 1))
                cs.assign(var, (shifted >> i) & 1)
            elif kind == "relu_out":
                _, name, idx, _bits = desc
                v = int(relu_in[name][idx])
                cs.assign(var, v if v > 0 else 0)
            elif kind == "dot_wire":
                _, name, d, i = desc
                op: DotLayerOp = ops[name]
                pos = int(op.input_cols[i, op.col_of_dot[d]])
                x = int(values[op.inputs[0]][pos - 1])
                w = int(op.weight_rows[op.row_of_dot[d]][i])
                cs.assign(var, w * x)
            elif kind == "affine_wire":
                _, name, idx = desc
                op = ops[name]
                x = int(values[op.inputs[0]][idx])
                cs.assign(var, int(op.gamma[idx]) * x)
            elif kind == "lut":
                # Lookup-argument wires (outputs, inverse columns,
                # multiplicities, sponge, range bits) are recomputed en
                # masse from the re-assigned input wires below.
                continue
            elif kind == "mul_wire":
                _, name, d, kk = desc
                op = ops[name]
                if isinstance(op, MatMulOp):
                    m, k, n = op.dims
                    a2 = values[op.inputs[0]].reshape(op.a_shape)
                    b2 = values[op.inputs[1]].reshape(op.b_shape)
                    i, jj = d // n, d % n
                    w = int(b2[jj, kk] if op.transpose_b else b2[kk, jj])
                    cs.assign(var, int(a2[i, kk]) * w)
                else:  # RowScaleOp: elementwise row reciprocal scaling
                    e = int(values[op.inputs[0]][d])
                    r = int(values[op.inputs[1]][d // op.width])
                    cs.assign(var, e * r)
            elif kind == "ln_sq":
                _, name, flat = desc
                c, _y = ln[name]
                cv = int(c[flat // c.shape[1], flat % c.shape[1]])
                cs.assign(var, cv * cv)
            elif kind == "ln_prod":
                _, name, flat = desc
                c, y = ln[name]
                cv = int(c[flat // c.shape[1], flat % c.shape[1]])
                cs.assign(var, cv * int(y[flat // c.shape[1]]))
            elif kind == "sel_bit":
                _, tag, idx, v = desc
                vals, lo = sel_in[tag]
                cs.assign(var, 1 if int(vals[idx]) == lo + v else 0)
            elif kind == "sel_out":
                _, tag, idx = desc
                cs.assign(var, int(sel_out[tag][idx]))
            else:
                raise ValueError(f"unknown recipe descriptor {desc!r}")
        if cs.lookup_blocks:
            from repro.lookup.argument import reassign_lookup_columns

            reassign_lookup_columns(cs)
        self.stats.assign_times.append(time.perf_counter() - start)
        return program
