"""The distributed Sweep3D sweep on the simulated machine.

Each process of the 2-D KBA decomposition runs as a DES process with a
SimMPI rank.  Per octant, per K-block it (1) receives its upstream I-
and J-surfaces, (2) charges the simulated clock the machine's grind
time for the block, and (3) sends the downstream surfaces.  The DES is
timing-only: messages carry their byte counts and no payload, because
simulated time never depends on payload values.  The numerics run
after the DES, in one whole-domain KBA pass (:meth:`ParallelSweep.
_flux`): every block on a wavefront diagonal of the process array is
independent of the others, so each diagonal is one batched
:class:`repro.sweep3d.kernel.BoundKernel` call.  One run therefore
yields both a physically meaningful global flux field (tested to match
the sequential solver to round-off, and bit-identical to sweeping each
rank's blocks in turn) and a simulated iteration time (cross-validated
against the analytic wavefront model).

Negative-direction octants are swept in flipped orientation: each rank
sweeps its local arrays flipped into sweep orientation, which for the
whole domain is the global array flipped, so the batched pass flips
the global source once per octant and un-flips the octant's flux when
accumulating it.

A fixed-source timed run (``run(iterations=N)``) repeats numerically
identical sweeps, so the DES plays ``N`` sweeps' events and the flux is
computed once; the source iteration of :meth:`ParallelSweep.
solve_distributed` runs first, and the DES then plays the iterations it
took.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.mpi import DeliveryError, Location, SimMPI
from repro.sim.engine import SimulationError, Simulator
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import bind_octant_kernel
from repro.sweep3d.plan import get_plan
from repro.sweep3d.quadrature import OCTANTS, AngleSet, make_angle_set
from repro.sweep3d.solver import _flip

__all__ = ["ParallelSweepResult", "ParallelSweep", "SweepAborted"]

_TAG_I = 1 << 16
_TAG_J = 1 << 17


class SweepAborted(RuntimeError):
    """A distributed sweep died mid-run on a delivery failure.

    Raised by :meth:`ParallelSweep.run` when a rank's bounded receive
    or resilient send gives up (:class:`~repro.comm.mpi.DeliveryError`)
    — only possible when the survivability knobs (``recv_timeout`` /
    ``delivery``) are enabled.  Carries what a recovery orchestrator
    needs: how far the simulated clock got and how many whole
    iterations every rank had completed (the resume point).
    """

    def __init__(self, sim_time: float, completed_iterations: int,
                 cause: Exception, retries: int = 0):
        super().__init__(
            f"sweep aborted at t={sim_time:.6g}s after "
            f"{completed_iterations} completed iteration(s): {cause}"
        )
        self.sim_time = sim_time
        self.completed_iterations = completed_iterations
        self.cause = cause
        #: message retransmissions charged before the abort
        self.retries = retries


def _finish_line(body, finish, remaining: list):
    """Wrap a rank body so the last one to return succeeds ``finish``."""
    result = yield from body
    remaining[0] -= 1
    if remaining[0] == 0:
        finish.succeed(None)
    return result


def _wavefronts(npe_i: int, npe_j: int, k_blocks: int) -> list:
    """The KBA diagonals of an ``npe_i x npe_j`` process array sweeping
    ``k_blocks`` K-blocks, in sweep orientation: per diagonal, the
    process coordinates ``qi``, ``qj`` and K-block ``b`` of its blocks,
    and where each block's x / y / z inflow sits among the previous
    diagonal's blocks (``-1``: the vacuum face)."""
    qi, qj = np.divmod(np.arange(npe_i * npe_j), npe_j)
    # the extra row and column stay -1: upstream of the first rank
    slot = np.full((npe_i + 1, npe_j + 1), -1)
    diagonals = []
    for d in range(npe_i + npe_j + k_blocks - 2):
        b = d - qi - qj
        on = (b >= 0) & (b < k_blocks)
        i, j, b = qi[on], qj[on], b[on]
        diagonals.append((i, j, b, slot[i - 1, j], slot[i, j - 1],
                          np.where(b > 0, slot[i, j], -1)))
        slot[i, j] = np.arange(i.size)
    return diagonals


@dataclass
class ParallelSweepResult:
    """Outcome of a distributed iteration set."""

    phi: np.ndarray
    iteration_time: float
    iterations: int
    messages: int
    bytes_sent: int
    #: simulated seconds each rank spent computing blocks (all
    #: iterations; identical across ranks in weak scaling)
    compute_time_per_rank: float = 0.0
    #: message retransmissions (0 without a delivery policy)
    retries: int = 0

    @property
    def parallel_efficiency(self) -> float:
        """Fraction of the run each rank spent computing — the measured
        counterpart of the wavefront model's parallel efficiency."""
        total = self.iteration_time * self.iterations
        return self.compute_time_per_rank / total if total > 0 else 1.0

    def expected_wallclock(self, model, interval: float | None = None) -> float:
        """Expected wall clock of this iteration set under failures.

        ``model`` is a checkpoint/restart cost model (duck-typed
        ``expected_runtime``, e.g. :class:`repro.resilience.checkpoint.
        CheckpointModel`); ``interval`` overrides its optimal checkpoint
        interval.  Bridges the DES-measured failure-free solve time to
        the Young/Daly failure economics.
        """
        return model.expected_runtime(
            self.iteration_time * self.iterations, interval
        )


class ParallelSweep:
    """Run the KBA sweep over ``decomp`` on a simulated fabric.

    Parameters
    ----------
    inp:
        The per-process subgrid (weak scaling: every rank gets this).
    decomp:
        The logical process array.
    grind_time:
        Seconds per cell-angle charged to the simulated clock.
    fabric:
        A SimMPI fabric (transport cost model between rank locations).
    locations:
        Physical placement of each rank; defaults to one node per rank.
    delivery, recv_timeout, fault_hook:
        Survivability knobs (all default off — the default run is the
        seed timeline, bit for bit): a DeliveryPolicy for the
        communicator, a bound on every surface receive, and a hook to
        wire a FaultInjector into the run's private Simulator.  With
        them enabled a mid-run fault surfaces as :class:`SweepAborted`;
        see :func:`repro.resilience.recovery.run_with_recovery`.
    """

    def __init__(
        self,
        inp: SweepInput,
        decomp: Decomposition2D,
        grind_time: float | list[float],
        fabric,
        locations: list[Location] | None = None,
        angles: AngleSet | None = None,
        timeline=None,
        tracer=None,
        delivery=None,
        recv_timeout: float | None = None,
        fault_hook=None,
        obs=None,
    ):
        if isinstance(grind_time, (int, float)):
            grinds = [float(grind_time)] * decomp.size
        else:
            grinds = [float(g) for g in grind_time]
            if len(grinds) != decomp.size:
                raise ValueError("need one grind time per rank")
        if any(g <= 0 for g in grinds):
            raise ValueError("grind_time must be positive")
        self.inp = inp
        self.decomp = decomp
        self.grind_times = grinds
        self.grind_time = grinds[0]
        self.fabric = fabric
        self.locations = locations or [
            Location(node=r) for r in range(decomp.size)
        ]
        if len(self.locations) != decomp.size:
            raise ValueError("one location per rank required")
        self.angles = angles or make_angle_set(inp.mmi)
        #: optional :class:`repro.sim.timeline.Timeline` receiving one
        #: busy interval per computed block
        self.timeline = timeline
        #: optional :class:`repro.sim.trace.Tracer` passed to the
        #: communicator; records the MPI event timeline of the run
        self.tracer = tracer
        # -- survivability knobs (all default off: the default run is
        # bit-identical to the seed timeline, asserted in perf smoke) --
        #: optional :class:`repro.resilience.policy.DeliveryPolicy`
        #: given to the communicator (sends to dead endpoints fail)
        self.delivery = delivery
        #: bound on every surface receive, simulated seconds; a dead
        #: upstream neighbour then aborts the run (:class:`SweepAborted`)
        #: instead of stalling the wavefront forever
        self.recv_timeout = recv_timeout
        #: optional ``hook(sim, procs, locations)`` called after the
        #: rank processes are created and before the simulation runs —
        #: the seam where a recovery driver wires a FaultInjector to
        #: this run's private Simulator (``injector.watch`` per node)
        self.fault_hook = fault_hook
        #: optional :class:`repro.obs.recorder.ObsRecorder`: records
        #: ``sweep.iteration`` / ``sweep.octant`` / ``sweep.compute``
        #: spans per rank, attaches to the run's private Simulator, and
        #: is handed to the communicator for send/recv/collective spans
        if obs is not None:
            from repro.obs.recorder import active

            obs = active(obs)
        self.obs = obs

    # -- numerics: one whole-domain KBA pass per sweep --------------------------
    def _flux(self, source: np.ndarray) -> np.ndarray:
        """Global scalar flux of one 8-octant sweep of the global
        ``source`` (``(it*npe_i, jt*npe_j, kt)``).

        In an octant's sweep orientation, the block at process
        coordinates ``(qi, qj)`` and K-block ``b`` needs only the
        outflows of ``(qi-1, qj, b)``, ``(qi, qj-1, b)`` and
        ``(qi, qj, b-1)``, so every block on a diagonal
        ``qi + qj + b = d`` is independent of the others: each diagonal
        is one batched kernel call, fed by the previous diagonal's
        outflow faces.  Per block this is exactly the sweep a rank runs
        on its own subgrid, so the flux is bit-identical to computing
        every block rank by rank; octants accumulate in octant order.
        """
        inp, dec, ang = self.inp, self.decomp, self.angles
        P, Q, kb = dec.npe_i, dec.npe_j, inp.k_blocks
        it, jt, mk, M = inp.it, inp.jt, inp.mk, ang.n_angles
        kernel = bind_octant_kernel(inp.sigma_t, inp.dx, inp.dy, inp.dz, ang,
                                    get_plan(it, jt, mk, M))
        schedule = _wavefronts(P, Q, kb)
        # each face stack ends in one vacuum row, which index -1 selects
        vacuum = (np.zeros((1, jt, mk, M)), np.zeros((1, it, mk, M)),
                  np.zeros((1, it, jt, M)))
        phi = np.zeros(source.shape)
        phi_oct = np.empty((P, it, Q, jt, kb, mk))
        for octant in OCTANTS:
            src = _flip(source, octant.signs).reshape(P, it, Q, jt, kb, mk)
            faces = vacuum
            for qi, qj, b, ix, iy, iz in schedule:
                blk_phi, *out = kernel(
                    src[qi, :, qj, :, b, :],
                    faces[0][ix], faces[1][iy], faces[2][iz],
                )
                phi_oct[qi, :, qj, :, b, :] = blk_phi
                faces = [np.concatenate(pair) for pair in zip(out, vacuum)]
            phi += _flip(phi_oct.reshape(source.shape), octant.signs)
        return phi

    # -- the DES: timing only ---------------------------------------------------
    def _sweep_once(self, rank):
        """One full 8-octant sweep's events on ``rank`` (generator): per
        octant and K-block, receive the upstream I- and J-surfaces,
        charge the block's grind time to the simulated clock, and send
        the downstream surfaces.  Messages carry their byte counts and
        no payload: simulated time never depends on payload values, so
        the numerics run outside the DES (:meth:`_flux`)."""
        inp, dec = self.inp, self.decomp
        kb = inp.k_blocks
        M = self.angles.n_angles
        block_time = inp.block_angle_work() * self.grind_times[rank.index]
        i_surface = inp.jt * inp.mk * M * 8
        j_surface = inp.it * inp.mk * M * 8
        obs = self.obs
        for octant in OCTANTS:
            up_i = dec.upstream_i(rank.index, octant.sx)
            dn_i = dec.downstream_i(rank.index, octant.sx)
            up_j = dec.upstream_j(rank.index, octant.sy)
            dn_j = dec.downstream_j(rank.index, octant.sy)
            t_oct = rank.sim.now if obs is not None else 0.0
            for b in range(kb):
                tag_i = _TAG_I + octant.id * kb + b
                tag_j = _TAG_J + octant.id * kb + b
                if up_i is not None:
                    yield from rank.recv(
                        source=up_i, tag=tag_i, timeout=self.recv_timeout
                    )
                if up_j is not None:
                    yield from rank.recv(
                        source=up_j, tag=tag_j, timeout=self.recv_timeout
                    )
                start = rank.sim.now
                yield rank.sim.timeout(block_time)
                if obs is not None:
                    obs.span("sweep.compute", rank.index, start, rank.sim.now,
                             octant=octant.id, block=b)
                if self.timeline is not None:
                    self.timeline.record(
                        f"rank{rank.index}", start, rank.sim.now,
                        label=f"oct{octant.id}b{b}",
                    )
                if dn_i is not None:
                    yield from rank.send(dn_i, i_surface, tag=tag_i)
                if dn_j is not None:
                    yield from rank.send(dn_j, j_surface, tag=tag_j)
            if obs is not None:
                obs.span("sweep.octant", rank.index, t_oct, rank.sim.now,
                         octant=octant.id)

    def _rank_body(self, rank, iterations: int, progress: list):
        """Timed runs: repeat the same fixed-source sweep, as the
        paper's fixed-iteration measurements do.  ``progress[rank]``
        counts this rank's finished sweeps — the recovery driver's
        resume point when a fault aborts the run."""
        obs = self.obs
        for iteration in range(iterations):
            t0 = rank.sim.now if obs is not None else 0.0
            yield from self._sweep_once(rank)
            if obs is not None:
                # ``replay``: this sweep repeats the run's first one
                obs.span("sweep.iteration", rank.index, t0, rank.sim.now,
                         iteration=iteration, replay=iteration > 0)
            progress[rank.index] = iteration + 1

    def _rank_solve_body(self, rank, iterations: int):
        """Distributed source iteration: per iteration a sweep, then the
        two allreduces (flux change and peak) the ranks agree on
        convergence with — the full §V solver's events.  Their values
        were settled by the source iteration run before the DES, so the
        allreduces carry placeholders."""
        obs = self.obs
        for iteration in range(1, iterations + 1):
            t0 = rank.sim.now if obs is not None else 0.0
            yield from self._sweep_once(rank)
            yield from rank.allreduce(0.0, op=max)
            yield from rank.allreduce(0.0, op=max)
            if obs is not None:
                obs.span("sweep.iteration", rank.index, t0, rank.sim.now,
                         iteration=iteration)

    # -- driver ----------------------------------------------------------------
    def _machine(self):
        """A private Simulator and communicator for one run."""
        sim = Simulator()
        if self.obs is not None:
            sim.attach_observer(self.obs)
        comm = SimMPI(sim, self.fabric, self.locations,
                      delivery=self.delivery, obs=self.obs)
        if self.tracer is not None:
            comm.tracer = self.tracer
        return sim, comm

    def run(
        self,
        source: np.ndarray | None = None,
        iterations: int = 1,
    ) -> ParallelSweepResult:
        """Execute ``iterations`` sweeps; returns global flux and the
        simulated time per iteration.

        A fixed-source timed run repeats numerically identical sweeps:
        the DES plays the ``iterations`` sweeps' events, and the flux is
        computed once after it completes — so an aborted run
        (:class:`SweepAborted`) does no numerics.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        inp, dec = self.inp, self.decomp
        if source is None:
            source = np.full((inp.it, inp.jt, inp.kt), inp.q)
        if source.shape != (inp.it, inp.jt, inp.kt):
            raise ValueError("source must match the per-rank subgrid")
        sim, comm = self._machine()
        progress = [0] * dec.size
        procs = []
        # With bounded receives armed, recv timers that lose their race
        # against the message stay in the event heap; draining it would
        # drag ``sim.now`` past the real completion time.  A finish-line
        # event succeeded by the last rank to complete lets the bounded
        # run stop at the true finish instant and never pop the stale
        # timers — while a survivor's DeliveryError still escapes, and a
        # fault victim's defused Interrupt stays silent.
        finish = sim.event() if self.recv_timeout is not None else None
        remaining = [dec.size]
        for r in range(dec.size):
            body = self._rank_body(comm.rank(r), iterations, progress)
            if finish is not None:
                body = _finish_line(body, finish, remaining)
            procs.append(sim.process(body, name=f"sweep-rank{r}"))
        if self.fault_hook is not None:
            self.fault_hook(sim, procs, self.locations)
        try:
            if finish is not None:
                sim.run(until=finish)
            else:
                sim.run()
        except DeliveryError as err:
            raise SweepAborted(
                sim.now, min(progress), err, retries=sum(comm.retry_counts)
            ) from err
        except SimulationError as err:
            if finish is None:
                raise
            # every rank died before any survivor's timeout could fire
            raise SweepAborted(
                sim.now, min(progress), err, retries=sum(comm.retry_counts)
            ) from err
        # weak scaling: every rank sweeps the same local source
        phi = self._flux(np.tile(source, (dec.npe_i, dec.npe_j, 1)))
        return self._result(sim, comm, phi, iterations)

    def solve_distributed(self, max_iterations: int = 100):
        """Run the full distributed source iteration to convergence.

        Returns ``(result, info)``: the usual
        :class:`ParallelSweepResult` (``iteration_time`` is the
        per-iteration average) plus a dict with ``iterations``,
        ``converged``, and ``rel_change`` — the distributed solver's
        counterpart of :func:`repro.sweep3d.solver.solve`.  The source
        iteration runs first, on the global flux; the DES then plays
        the iterations it took.
        """
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        inp, dec = self.inp, self.decomp
        external = np.full((inp.it * dec.npe_i, inp.jt * dec.npe_j, inp.kt), inp.q)
        phi = np.zeros_like(external)
        for iteration in range(1, max_iterations + 1):
            phi_new = self._flux(external + inp.sigma_s * phi)
            change = float(np.abs(phi_new - phi).max())
            peak = float(np.abs(phi_new).max())
            phi = phi_new
            rel = change / peak if peak > 0 else 0.0
            if rel < inp.epsi:
                break
        info = {"iterations": iteration, "converged": rel < inp.epsi,
                "rel_change": rel}
        sim, comm = self._machine()
        for r in range(dec.size):
            sim.process(self._rank_solve_body(comm.rank(r), iteration),
                        name=f"solve-rank{r}")
        sim.run()
        return self._result(sim, comm, phi, iteration), info

    def _result(self, sim, comm, phi: np.ndarray, iterations: int) -> ParallelSweepResult:
        """Shared :class:`ParallelSweepResult` assembly for ``run`` and
        ``solve_distributed``."""
        # Per-rank compute time uses the mean grind (exact when uniform).
        block_time = self.inp.block_angle_work() * (
            sum(self.grind_times) / len(self.grind_times)
        )
        return ParallelSweepResult(
            phi=phi,
            iteration_time=sim.now / iterations,
            iterations=iterations,
            messages=sum(comm.sent_counts),
            bytes_sent=sum(comm.sent_bytes),
            compute_time_per_rank=iterations * 8 * self.inp.k_blocks * block_time,
            retries=sum(comm.retry_counts),
        )
