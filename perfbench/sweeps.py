"""The two sweep workloads: fullmachine and sparse_replay.

One *op* is one public ``ParallelSweep.run`` over the workload's inputs.
The traced run adds a *census op*: the same run under
``ObsRecorder(sink=AggregatingSink())`` with the transport observer
installed, followed by ``to_summary`` — what ``python -m repro profile``
does.  It gives the event census and the obs layer's metrics.

Every op's outputs are checked (:meth:`SweepWorkload.check`):

* ``phi`` equals the sequential ``sweep_all_octants`` of the tiled
  global problem to round-off, and its digest is identical across ops;
* messages and bytes equal the closed-form KBA count;
* ``iteration_time`` is identical across ops and lies between the
  compute-only bound and 1.15x the wavefront model on the worst
  neighbour link (the repository documents the model as exact for
  square arrays and up to 15% low for elongated ones);
* on the census op, every rank's phase fractions sum to 1 within 1e-9.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

from perfbench.spec import GRIND_JITTER, GRIND_S, TILE, WORKLOADS
from repro.comm.mpi import UniformFabric
from repro.comm.transport import Transport, set_transport_observer
from repro.obs import AggregatingSink, ObsRecorder, phase_fractions, to_summary
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.perfmodel import SweepMachineParams, WavefrontModel
from repro.sweep3d.placement import hop_aware_cell_fabric, spe_locations
from repro.sweep3d.quadrature import make_angle_set
from repro.sweep3d.solver import sweep_all_octants

#: slack on the wavefront model for elongated process arrays
MODEL_SLACK = 1.15
#: largest per-rank phase-fraction sum error accepted on the census op
FRACTION_TOL = 1e-9


@dataclass
class SweepOp:
    """One op's host seconds and simulated outputs, reduced to what the
    checks and metrics need: a run keeps every op, and holding arrays
    or recorders would make peak memory grow with the op count."""

    #: wall and CPU seconds of the op
    seconds: float
    cpu_s: float
    digest: str
    #: phi equals the sequential sweep to round-off
    phi_matches: bool
    iteration_time: float
    messages: int
    bytes_sent: int
    #: census op only: event census, observed-loop seconds, the
    #: worst per-rank phase-fraction sum error, to_summary seconds
    census: dict | None = None
    host_run_time: float = 0.0
    fraction_error: float = 0.0
    summary_s: float = 0.0
    #: requests this op stands for
    jobs: int = 1

    def outputs(self) -> tuple:
        """What tracing must leave bit-identical."""
        return (self.digest, self.iteration_time, self.messages,
                self.bytes_sent)


class _WorstLink:
    """The slowest neighbour link of a fabric, as a wavefront-model
    ``comm``: per size, the largest one-way time over the given pairs."""

    def __init__(self, fabric, pairs):
        self.fabric, self.pairs = fabric, pairs

    def one_way_time(self, size: int) -> float:
        return max(self.fabric.one_way_time(a, b, size) for a, b in self.pairs)

    def serialization_time(self, size: int) -> float:
        return max(
            self.fabric.one_way_time(a, b, size)
            - self.fabric.zero_byte_latency(a, b)
            for a, b in self.pairs
        )


class SweepWorkload:
    """Inputs, op and output checks of one sweep workload."""

    def __init__(self, name: str, seed: int):
        cfg = WORKLOADS[name]
        rng = np.random.default_rng(seed)
        self.iterations = cfg["iterations"]
        self.inp = inp = SweepInput(**TILE)
        self.decomp = Decomposition2D.near_square(cfg["ranks"])
        self.source = inp.q * (0.5 + rng.random((inp.it, inp.jt, inp.kt)))
        if cfg["fabric"] == "hop_aware":
            self.grinds = list(GRIND_S * (1.0 + rng.uniform(
                -GRIND_JITTER, GRIND_JITTER, self.decomp.size)))
            self.fabric = hop_aware_cell_fabric()
            self.locations = spe_locations(self.decomp)
        else:
            self.grinds = GRIND_S
            self.fabric = UniformFabric(
                Transport("ib", latency=2e-6, bandwidth=2e9))
            self.locations = None
        self.sweep = self.build()
        self._first = None

    def build(self, fabric=None, obs=None) -> ParallelSweep:
        return ParallelSweep(
            self.inp, self.decomp, self.grinds, fabric or self.fabric,
            locations=self.locations, obs=obs,
        )

    # -- ops -------------------------------------------------------------------

    def op(self, clock=None) -> SweepOp:
        """One timed op; with a :class:`~perfbench.layers.LayerClock`
        the fabric is wrapped by it too."""
        sweep = self.sweep if clock is None else self.build(
            clock.fabric(self.fabric))
        c0, t0 = process_time(), perf_counter()
        result = sweep.run(self.source, iterations=self.iterations)
        return self._record(perf_counter() - t0, process_time() - c0, result)

    def census_op(self) -> SweepOp:
        """A run under the obs recorder and the transport observer (the
        recorder binds at construction), then ``to_summary``: the event
        census and the obs layer's times."""
        t0 = perf_counter()
        rec = ObsRecorder(sink=AggregatingSink())
        set_transport_observer(rec)
        try:
            result = self.build(obs=rec).run(
                self.source, iterations=self.iterations)
        finally:
            set_transport_observer(None)
        t1 = perf_counter()
        summary = to_summary(rec, result.iteration_time * result.iterations)
        t2 = perf_counter()
        return self._record(t2 - t0, 0.0, result, rec, summary, t2 - t1)

    def _record(self, seconds, cpu_s, result, rec=None, summary=None,
                summary_s=0.0) -> SweepOp:
        phi = result.phi
        op = SweepOp(
            seconds=seconds,
            cpu_s=cpu_s,
            digest=hashlib.sha256(phi.tobytes()).hexdigest(),
            phi_matches=bool(np.allclose(phi, self.reference["phi"],
                                         rtol=1e-12, atol=1e-13)),
            iteration_time=result.iteration_time,
            messages=result.messages,
            bytes_sent=result.bytes_sent,
            summary_s=summary_s,
        )
        if rec is not None:
            op.census = _census_of(rec, summary, result.messages)
            op.host_run_time = rec.host_run_time
            op.fraction_error = max(abs(sum(f.values()) - 1.0)
                                    for f in phase_fractions(summary).values())
        return op

    # -- checks ----------------------------------------------------------------

    @functools.cached_property
    def reference(self) -> dict:
        """Closed-form counts, time bounds and the sequential flux
        (built on first use, so set-up time does not include it)."""
        inp, dec = self.inp, self.decomp
        angles = make_angle_set(inp.mmi)
        m = angles.n_angles
        steps = self.iterations * 8 * inp.k_blocks
        i_links = (dec.npe_i - 1) * dec.npe_j
        j_links = dec.npe_i * (dec.npe_j - 1)
        global_inp = inp.with_subgrid(
            inp.it * dec.npe_i, inp.jt * dec.npe_j, inp.kt)
        phi, _, _ = sweep_all_octants(
            global_inp, np.tile(self.source, (dec.npe_i, dec.npe_j, 1)), angles)
        grind = float(np.max(self.grinds))
        block = inp.block_angle_work() * grind
        locations = self.build().locations
        pairs = []
        for r in range(dec.size):
            for nxt in (dec.downstream_i(r, 1), dec.downstream_j(r, 1)):
                if nxt is not None:
                    pairs.append((locations[r], locations[nxt]))
        model = WavefrontModel(
            inp, dec, SweepMachineParams("worst-link", grind,
                                         _WorstLink(self.fabric, pairs)))
        return {
            "phi": phi,
            "messages": steps * (i_links + j_links),
            "bytes": steps * 8 * inp.mk * m * (
                i_links * inp.jt + j_links * inp.it),
            "time_low": 8 * inp.k_blocks * block,
            "time_high": MODEL_SLACK * model.iteration_time(),
        }

    def check(self, op: SweepOp) -> list[str]:
        """Why ``op``'s outputs are wrong (empty when they are right)."""
        ref = self.reference
        errors = []
        if not op.phi_matches:
            errors.append("phi differs from the sequential sweep")
        if op.messages != ref["messages"] or op.bytes_sent != ref["bytes"]:
            errors.append(
                f"census {op.messages} msgs / {op.bytes_sent} B, closed "
                f"form {ref['messages']} / {ref['bytes']}")
        if not ref["time_low"] <= op.iteration_time <= ref["time_high"]:
            errors.append(
                f"iteration_time {op.iteration_time!r} outside "
                f"[{ref['time_low']!r}, {ref['time_high']!r}]")
        if self._first is None:
            self._first = op.outputs()
        elif op.outputs() != self._first:
            errors.append("outputs differ from the run's first op")
        if op.fraction_error > FRACTION_TOL:
            errors.append(f"phase fractions off 1 by {op.fraction_error:.3g}")
        return errors

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, ops: list[SweepOp]) -> tuple[dict, dict]:
        """``sweep_s`` (median op CPU seconds) and ``jobs_per_s``, plus
        report fields.  One client with one sweep in flight: throughput
        is 1 / latency."""
        times = [op.cpu_s for op in ops]
        sweep_s = statistics.median(times)
        return ({"sweep_s": sweep_s, "jobs_per_s": 1.0 / sweep_s},
                {"samples": len(ops), "op_cpu_s": times,
                 "op_wall_s": [op.seconds for op in ops]})

    def layer_metrics(self, clock, traced_ops, untraced, census) -> dict:
        """Census, layer and tracing-overhead metrics of a traced run."""
        out = dict(census.census)
        out.update(_layer_times(clock, traced_ops,
                                out["census.logical_events"]))
        out["obs.summary_s"] = census.summary_s
        out["obs.run_s"] = census.host_run_time
        out["trace.untraced_sweep_s"] = untraced.seconds
        out["trace.overhead"] = out["trace.sweep_s"] / untraced.seconds
        return out


def _census_of(rec: ObsRecorder, summary: dict, messages: int) -> dict:
    """Dispatches, cohort-batched deliveries and logical events (their
    sum, invariant to batching) of a recorded run."""
    dispatched = int(sum(rec.events_by_class.values()))
    batched = int(summary["counters"]
                  .get("mpi.batched_deliveries", {"total": 0})["total"])
    return {
        "census.dispatched": dispatched,
        "census.batched_deliveries": batched,
        "census.logical_events": dispatched + batched,
        "mpi.batched_share": batched / messages,
        "obs.spans": rec.span_count,
        "obs.events_dispatched": dispatched,
    }


def _layer_times(clock, traced_ops: list[SweepOp], logical_events) -> dict:
    """Per-op layer metrics from a :class:`~perfbench.layers.LayerClock`
    that saw ``traced_ops``.

    Self times are nested-timer differences: engine self = run minus
    process resumes; orchestration self = resumes minus messaging minus
    numerics; messaging excludes the fabric calls made inside
    ``Rank.send``; outside-engine = op minus run.  Together they
    partition the traced op time, which ``trace.coverage`` (sum of the
    non-negative parts over the op time) confirms.
    """
    k = len(traced_ops)
    n = {key: v / k for key, v in clock.calls.items()}
    s = {key: v / k for key, v in clock.seconds.items()}
    op_s = sum(op.seconds for op in traced_ops) / k
    kernel_s, resume_s, run_s = s["kernel"], s["resume"], s["run"]
    send_s, recv_s, fabric_s = s["send"], s["recv"], s["fabric"]
    engine_self = run_s - resume_s
    parallel_self = resume_s - send_s - recv_s - kernel_s
    outside = op_s - run_s
    parts = (engine_self, parallel_self, send_s - fabric_s, recv_s,
             fabric_s, kernel_s, outside)
    out = {
        "kernel.calls": n["kernel"],
        "kernel.busy_s": kernel_s,
        "kernel.us_per_call": 1e6 * kernel_s / n["kernel"],
        "kernel.share": kernel_s / op_s,
        "engine.run_s": run_s,
        "engine.self_s": engine_self,
        "engine.resumes": n["resume"],
        "engine.timeouts": n["timeout"],
        "engine.ns_per_event": 1e9 * engine_self / logical_events,
        "mpi.sends": n["send"],
        "mpi.recvs": n["recv"],
        "mpi.send_s": send_s,
        "mpi.recv_s": recv_s,
        "mpi.messages": traced_ops[0].messages,
        "mpi.bytes": traced_ops[0].bytes_sent,
        "fabric.calls": n["fabric"],
        "fabric.s": fabric_s,
        "parallel.self_s": parallel_self,
        "parallel.outside_engine_s": outside,
        "trace.sweep_s": op_s,
        "trace.coverage": sum(p for p in parts if p > 0) / op_s,
    }
    return out
