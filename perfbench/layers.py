"""Outside-in layer accounting for the traced benchmark run.

Nothing under ``src/`` is instrumented for this: while :func:`traced`
is active, the public calls *into* each layer are wrapped from here and
timed with ``perf_counter``.

* numerics — the bound octant kernel ``ParallelSweep`` obtains from
  ``bind_octant_kernel``: calls and busy seconds.
* scheduler — ``Simulator.run`` (seconds), ``Simulator.timeout``
  (calls), and every process generator handed to ``Simulator.process``:
  one *resume* is one ``send``/``throw`` into it, timed.
* messaging — ``Rank.send`` / ``Rank.recv``: calls, and seconds spent
  inside the returned generators across all their resumptions.
* fabric — ``one_way_time`` / ``zero_byte_latency`` of the fabric
  wrapped by :meth:`LayerClock.fabric`.
* campaign — ``ArtifactStore.get`` / ``put`` and the ``Journal.record_*``
  writes in the client process.

The timers nest: kernel and messaging run inside process resumes, the
fabric inside ``Rank.send``, resumes inside ``Simulator.run``.  Self
times are therefore differences of nested timers (see
``perfbench.sweeps._layer_times``).

Wrapping adds a generator frame and two clock reads per resumption, so
the traced run is slower than the untraced one; the runner reports the
ratio as ``trace.overhead``.  Simulated outputs are unaffected: the
wrappers forward every value, yield the very same event objects, and
the runner checks traced against untraced outputs bit for bit.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

from repro.campaign.journal import Journal
from repro.campaign.store import ArtifactStore
from repro.comm.mpi import Rank
from repro.sim.engine import Simulator
from repro.sweep3d import parallel

_JOURNAL_WRITES = ("record_started", "record_cached_hit", "record_finished",
                   "record_failed", "record_end")


class LayerClock:
    """Call counts (``calls``) and host seconds (``seconds``) per
    wrapped boundary, accumulated over every traced op."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()

    def generator(self, gen, key: str, count_resumes: bool = False):
        """Forward ``gen`` step by step, charging the time inside each
        step to ``key`` (and counting each step when asked)."""
        calls, seconds = self.calls, self.seconds
        send, throw = gen.send, gen.throw
        value = thrown = None
        while True:
            if count_resumes:
                calls[key] += 1
            t0 = perf_counter()
            try:
                target = send(value) if thrown is None else throw(thrown)
            except StopIteration as stop:
                seconds[key] += perf_counter() - t0
                return stop.value
            except BaseException:
                seconds[key] += perf_counter() - t0
                raise
            seconds[key] += perf_counter() - t0
            try:
                value = yield target
                thrown = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the engine
                value, thrown = None, exc

    def function(self, fn, key: str):
        """``fn`` with every call counted and timed under ``key``."""
        calls, seconds = self.calls, self.seconds

        def timed(*args, **kwargs):
            calls[key] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - t0

        return timed

    def fabric(self, inner):
        """A fabric that times every cost-model call into ``inner``."""
        return _TimedFabric(inner, self)


class _TimedFabric:
    """Cost-model proxy; deliberately has no ``transfer`` so SimMPI
    treats it exactly like the uncontended fabric it wraps."""

    def __init__(self, inner, clock: LayerClock):
        self.one_way_time = clock.function(inner.one_way_time, "fabric")
        self.zero_byte_latency = clock.function(inner.zero_byte_latency,
                                                "fabric")


@contextlib.contextmanager
def traced(clock: LayerClock):
    """Wrap every layer boundary listed in the module docstring for the
    duration of the block, restoring the originals afterwards."""

    class TracedSimulator(Simulator):
        def run(self, until=None):
            t0 = perf_counter()
            try:
                return Simulator.run(self, until)
            finally:
                clock.seconds["run"] += perf_counter() - t0

        def timeout(self, delay, value=None):
            clock.calls["timeout"] += 1
            return Simulator.timeout(self, delay, value)

        def process(self, generator, name=None):
            return Simulator.process(
                self, clock.generator(generator, "resume", True), name=name
            )

    bind = parallel.bind_octant_kernel

    def traced_bind(*args, **kwargs):
        return clock.function(bind(*args, **kwargs), "kernel")

    send, recv = Rank.send, Rank.recv

    def traced_send(self, *args, **kwargs):
        clock.calls["send"] += 1
        return clock.generator(send(self, *args, **kwargs), "send")

    def traced_recv(self, *args, **kwargs):
        clock.calls["recv"] += 1
        return clock.generator(recv(self, *args, **kwargs), "recv")

    patches = [
        (parallel, "Simulator", TracedSimulator),
        (parallel, "bind_octant_kernel", traced_bind),
        (Rank, "send", traced_send),
        (Rank, "recv", traced_recv),
        (ArtifactStore, "get", clock.function(ArtifactStore.get, "store.get")),
        (ArtifactStore, "put", clock.function(ArtifactStore.put, "store.put")),
    ] + [
        (Journal, name, clock.function(getattr(Journal, name), "journal"))
        for name in _JOURNAL_WRITES
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield clock
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
