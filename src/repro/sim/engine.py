"""Core discrete-event simulation kernel.

The kernel is deliberately small and deterministic:

* The event queue is a binary heap ordered by ``(time, priority, seq)``.
  ``seq`` is a monotonically increasing tie-breaker, so two events
  scheduled for the same instant always fire in scheduling order.  This
  makes every simulation run bit-for-bit reproducible.
* Processes are plain Python generators.  A process yields an
  :class:`Event` (or a :class:`Process`, which is itself an event that
  fires on termination) and is resumed with the event's value when the
  event succeeds, or has the failure exception thrown into it when the
  event fails.

Determinism contract
--------------------
Given the same sequence of ``process()``/``timeout()``/``succeed()``
calls, the simulator pops events in an identical order and advances the
clock through identical floating-point times, run after run.  Every
scheduling path — including the inlined fast paths below — consumes
exactly one ``seq`` number per scheduled occurrence, in call order, and
waiters are woken in registration order; nothing in the kernel iterates
a ``set``/``dict`` whose order could vary.  The perf-regression harness
(``benchmarks/perf``) uses this contract as its acceptance oracle:
optimizations must leave event order, event times and process results
bit-identical.

Performance notes
-----------------
The event loop is the hottest code in the repository (every figure
reproduction that exercises the DES bottoms out here), so the kernel
trades some repetition for speed:

* all event types carry ``__slots__`` (no per-instance dict);
* the first process to wait on an event with no other callbacks is
  parked in the event's ``_waiter`` slot instead of the ``callbacks``
  list, and :meth:`Simulator.run` resumes such a waiter *inline* —
  no callback-list allocation, iteration, or ``_resume`` call frame
  on the dominant ``yield sim.timeout(...)`` / ``yield event`` path
  (callbacks registered after the waiter still fire, after it, in
  registration order — identical to the pre-fast-path wake order);
* process bootstrap pushes a two-word :class:`_Bootstrap` marker on
  the heap instead of a full pre-succeeded :class:`Event`;
* ``Timeout``/``succeed``/``fail`` inline the heap push instead of
  calling :meth:`Simulator._schedule`;
* a processed :class:`Timeout` is recycled through a bounded
  per-simulator free-list (``Simulator(pool_size=...)``, default 64
  entries, 0 disables) when the run loop holds the only remaining
  reference (checked with ``sys.getrefcount``), so steady-state
  timeout loops — including bursty many-rank schedules that retire
  several timeouts between creations — allocate no event objects at
  all.  A timeout anyone still references — held in a variable,
  parked in a condition — is never recycled, so ``.value``/``.ok``
  stay valid.  Process-bootstrap markers recycle through a one-deep
  slot the same way;
* after a heap pop, the next queued entry is hoisted into the empty
  min buffer when it fires at the same instant, so same-timestamp
  event cohorts (a wavefront diagonal firing together) drain through
  slotted pops;
* bounded ``run(until=t)`` pushes a heap sentinel at the horizon
  instead of comparing ``queue[0][0] <= t`` every iteration;
* a one-slot min buffer (``Simulator._next``, see :func:`_push`) sits
  in front of the heap: an entry that sorts before everything queued
  waits in a single attribute, so the push-one/pop-one cadence of a
  timeout chain bypasses ``heapq`` entirely while reproducing the
  heap's total order exactly;
* :meth:`Simulator.run` has one hot loop with one inline resume block:
  each dispatch arm only picks the waiter and the value it is resumed
  with, and a per-class tail finishes the event.  The observed loop
  and :meth:`Simulator.step` share one generic slow path
  (:meth:`Simulator._step`).

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from sys import getrefcount
from time import perf_counter
from types import GeneratorType
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. time travel)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event priorities: URGENT events (internal resumptions) run before NORMAL
# events scheduled for the same instant, so resource handoffs complete
# before new work starts at a timestep.
URGENT = 0
NORMAL = 1


def _push(sim: "Simulator", entry: tuple) -> None:
    """Insert ``entry`` preserving the single-slot min-buffer invariant.

    ``sim._next``, when not None, holds the entry that sorts before
    everything in the heap; pops take it without touching the heap.  A
    workload alternating one push with one pop (the timeout chain every
    process body reduces to) then never pays for heap maintenance at
    all.  Entries are unique in their ``seq`` field, so the tuple
    comparisons below reproduce the heap's total order exactly — the
    slot is invisible to the determinism contract.

    The hot construction sites (``Timeout.__init__``,
    ``Simulator.timeout``, ``Event.succeed``, process bootstrap) and the
    run loop's process-termination push inline this body to avoid the
    call frame; keep them in sync.
    """
    nxt = sim._next
    if nxt is None:
        if sim._queue:
            heappush(sim._queue, entry)
        else:
            sim._next = entry
    elif entry < nxt:
        sim._next = entry
        heappush(sim._queue, nxt)
    else:
        heappush(sim._queue, entry)


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* (scheduled to fire) via :meth:`succeed` or
    :meth:`fail` and *processed* when the simulator pops it from the
    queue, at which point the parked waiter (if any) is resumed and all
    registered callbacks run.  ``callbacks`` is a list until the event
    is processed and ``None`` afterwards; callbacks must only be
    registered on unprocessed events.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_waiter",
        "defused",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list | None = []
        self._value: Any = None
        self._ok: bool | None = None
        self._triggered = False
        self._processed = False
        #: the first process waiting on this event, resumed inline by
        #: the run loop before any ``callbacks`` entries fire
        self._waiter: Process | None = None
        #: set True once some waiter consumed a failure; unhandled failures
        #: are re-raised by the simulator at the end of the step.
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Valid only after triggering."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result value (or failure exception)."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        t = sim._now + delay
        # Inline _push (hot: every process termination lands here).
        entry = (t, NORMAL, seq, self)
        nxt = sim._next
        if nxt is None:
            if sim._queue:
                heappush(sim._queue, entry)
            else:
                sim._next = entry
        elif entry < nxt:
            sim._next = entry
            heappush(sim._queue, nxt)
        else:
            heappush(sim._queue, entry)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        _push(sim, (sim._now + delay, NORMAL, seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Inline Event.__init__ + Simulator._schedule: a timeout is born
        # triggered, and this constructor is the hottest allocation site
        # in the repository.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._waiter = None
        self.defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        t = sim._now + delay
        # Inline _push (hottest allocation site in the repository).
        entry = (t, NORMAL, seq, self)
        nxt = sim._next
        if nxt is None:
            if sim._queue:
                heappush(sim._queue, entry)
            else:
                sim._next = entry
        elif entry < nxt:
            sim._next = entry
            heappush(sim._queue, nxt)
        else:
            heappush(sim._queue, entry)


class _Bootstrap:
    """A heap marker that resumes a newly created process.

    Stands in for the pre-succeeded bootstrap :class:`Event` the kernel
    used to allocate per process: two words instead of a full event plus
    callbacks list.  The class-level ``_ok``/``_value``/``defused``
    attributes let the generic :meth:`Process._resume` treat it as a
    succeeded event on the slow :meth:`Simulator.step` path.
    """

    __slots__ = ("process",)

    _ok = True
    _value = None
    defused = True

    def __init__(self, process: "Process"):
        self.process = process


class Process(Event):
    """A running simulation process wrapping a generator.

    A :class:`Process` is itself an :class:`Event` that fires when the
    generator terminates: its value is the generator's return value, or
    the uncaught exception on failure.  This lets one process ``yield``
    another to join it.
    """

    __slots__ = ("generator", "name", "_target", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator, name: str | None = None):
        if type(generator) is GeneratorType:
            if not name:
                name = generator.__name__
        elif isinstance(generator, Generator):
            if not name:
                name = getattr(generator, "__name__", "process")
        else:
            raise TypeError(f"Process requires a generator, got {type(generator)!r}")
        # Inline Event.__init__: process creation is the spawn/join hot
        # path, and the ABC isinstance above is bypassed for the plain
        # generators every caller in this repository passes.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self._waiter = None
        self.defused = False
        self.generator = generator
        self.name = name
        self._target: Event | None = None
        self._send = generator.send
        self._throw = generator.throw
        # Bootstrap: resume the generator at the current instant.  The
        # marker consumes one seq number like any scheduled event and is
        # drawn from a one-deep free slot refilled by the run loop.
        marker = sim._free_bootstrap
        if marker is not None:
            sim._free_bootstrap = None
            marker.process = self
        else:
            marker = _Bootstrap(self)
        sim._seq = seq = sim._seq + 1
        t = sim._now
        # Inline _push (URGENT: bootstraps run before NORMAL events at
        # the same instant).
        entry = (t, URGENT, seq, marker)
        nxt = sim._next
        if nxt is None:
            if sim._queue:
                heappush(sim._queue, entry)
            else:
                sim._next = entry
        elif entry < nxt:
            sim._next = entry
            heappush(sim._queue, nxt)
        else:
            heappush(sim._queue, entry)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return not self._triggered

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        sim = self.sim
        evt = Event.__new__(Event)
        evt.sim = sim
        evt.callbacks = [self._resume]
        evt._value = Interrupt(cause)
        evt._ok = False
        evt._triggered = True
        evt._processed = False
        evt._waiter = None
        evt.defused = True
        # Detach from the current target so its eventual firing is
        # ignored.  A single guarded remove() replaces the former
        # containment scan + remove (one O(n) pass instead of two when
        # the target has many waiters).
        target = self._target
        if target is not None:
            if target._waiter is self:
                target._waiter = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None
        sim._seq = seq = sim._seq + 1
        _push(sim, (sim._now, URGENT, seq, evt))

    # -- internal ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        send = self._send
        try:
            while True:
                if event._ok:
                    try:
                        target = send(event._value)
                    except StopIteration as stop:
                        self._terminate(value=stop.value)
                        return
                    except BaseException as exc:
                        self._terminate(error=exc)
                        return
                else:
                    event.defused = True
                    try:
                        target = self._throw(event._value)
                    except StopIteration as stop:
                        self._terminate(value=stop.value)
                        return
                    except BaseException as exc:
                        if exc is event._value:
                            # The process did not handle the failure; it
                            # propagates as this process's own failure.
                            self._terminate(error=exc)
                            return
                        raise
                if not isinstance(target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                    try:
                        self._throw(exc)
                    except StopIteration as stop:
                        self._terminate(value=stop.value)
                        return
                    except SimulationError as err:
                        self._terminate(error=err)
                        return
                if target.sim is not sim:
                    raise SimulationError("cannot wait on an event from another simulator")
                if target._processed:
                    # Already fired: loop and resume immediately with its value.
                    event = target
                    continue
                self._target = target
                if target._waiter is None and not target.callbacks:
                    target._waiter = self
                else:
                    target.callbacks.append(self._resume)
                return
        finally:
            sim._active_process = None

    def _park_slow(self, target: Any) -> None:
        """Handle a non-fast-path yield from the inlined run loop.

        Covers non-event yields, events of another simulator, and
        already-processed targets; mirrors the corresponding branches
        of :meth:`_resume`.
        """
        if isinstance(target, Event):
            if target.sim is not self.sim:
                raise SimulationError("cannot wait on an event from another simulator")
            # target is processed here (unprocessed same-sim events are
            # parked inline by the run loop): consume it immediately.
            self._resume(target)
            return
        sim = self.sim
        sim._active_process = self
        try:
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            try:
                self._throw(exc)
            except StopIteration as stop:
                self._terminate(value=stop.value)
                return
            except SimulationError as err:
                self._terminate(error=err)
                return
            raise exc
        finally:
            sim._active_process = None

    def _terminate(self, value: Any = None, error: BaseException | None = None) -> None:
        self._target = None
        if error is not None:
            self.fail(error)
        else:
            self.succeed(value)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        for evt in self.events:
            if evt.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for evt in self.events:
            if evt._processed:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._processed and e._ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once *all* constituent events have fired successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event fires successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


#: heap priority of the run-horizon sentinel: after every real event
#: scheduled for the same instant (``run(until=t)`` is inclusive of t).
_AFTER = 2


class _Stop:
    """Run-horizon sentinel pushed on the heap by bounded :meth:`Simulator.run`.

    Popping the current run's sentinel ends the loop with no per-event
    horizon comparison.  A sentinel orphaned by a run that raised is
    recognized by identity and skipped by later runs.
    """

    __slots__ = ()


#: default depth of the per-simulator timeout free-list (see Simulator)
_POOL_SIZE = 64


class Simulator:
    """The event loop: owns the clock and the future-event set.

    The future-event set is one binary heap of ``(time, priority, seq,
    event)`` entries behind a one-slot min buffer (see :func:`_push`).

    ``pool_size`` bounds the timeout free-list (``None`` uses the
    module default, ``0`` disables recycling entirely — the unpooled
    reference path the full-machine benchmark cross-checks against).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_next",
        "_seq",
        "_active_process",
        "_free_timeout",
        "_free_timeouts",
        "_free_bootstrap",
        "_pool_cap",
        "_observer",
    )

    def __init__(self, pool_size: int | None = None):
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        #: single-slot min buffer in front of the heap (see _push)
        self._next: tuple[float, int, int, Event] | None = None
        self._seq = 0
        self._active_process: Process | None = None
        #: one-deep first-level timeout free slot (the chain cadence
        #: recycles through this without touching the overflow list)
        self._free_timeout: Timeout | None = None
        #: overflow free-list of dead Timeout objects behind the slot
        #: (bursty schedules retire several timeouts between
        #: creations); bounded by _pool_cap
        self._free_timeouts: list[Timeout] = []
        #: one-deep free slot for process-bootstrap heap markers
        self._free_bootstrap: _Bootstrap | None = None
        self._pool_cap = _POOL_SIZE if pool_size is None else pool_size
        #: observability sink (see attach_observer); None keeps run()
        #: on the uninstrumented fast loop
        self._observer = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- observability -------------------------------------------------------
    @property
    def observer(self):
        """The attached observability sink, if any."""
        return self._observer

    def attach_observer(self, observer) -> None:
        """Route :meth:`run` through the observed loop.

        ``observer`` implements ``_note_event(cls_name, proc_name,
        host_dt)`` (see :class:`repro.obs.recorder.ObsRecorder`) and may
        expose a ``host_run_time`` accumulator.  Observation never
        changes the event timeline: the observed loop dispatches through
        the same generic machinery as :meth:`step`, consumes ``seq``
        numbers identically to the fast loop, and only *reads* state —
        the determinism contract holds with or without an observer.
        ``None`` (or an observer whose ``enabled`` is false) detaches.
        """
        if observer is not None and not getattr(observer, "enabled", True):
            observer = None
        self._observer = observer

    def detach_observer(self) -> None:
        """Return :meth:`run` to the uninstrumented fast loop."""
        self._observer = None

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        t = self._free_timeout
        if t is not None:
            self._free_timeout = None
        else:
            free = self._free_timeouts
            if not free:
                return Timeout(self, delay, value)
            t = free.pop()
        if delay < 0:
            self._free_timeout = t
            raise SimulationError(f"negative timeout delay: {delay!r}")
        t._value = value
        t.delay = delay
        self._seq = seq = self._seq + 1
        when = self._now + delay
        # Inline _push (the recycled-timeout fast path).
        entry = (when, NORMAL, seq, t)
        nxt = self._next
        if nxt is None:
            if self._queue:
                heappush(self._queue, entry)
            else:
                self._next = entry
        elif entry < nxt:
            self._next = entry
            heappush(self._queue, nxt)
        else:
            heappush(self._queue, entry)
        return t

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._seq += 1
        _push(self, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        nxt = self._next
        if nxt is not None:
            return nxt[0]
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (the slow, single-step path)."""
        self._step(None)

    def _step(self, obs) -> Any:
        """Pop and dispatch one event through the generic machinery.

        The slow path behind :meth:`step` and the observed loop: it
        checks that time never moves backwards (the hot loop skips that
        check) and, when ``obs`` is given, attributes the host
        wall-clock cost of each dispatch to the resumed process.  The
        event order and clock advance are those of :meth:`run` — its
        inlined fast paths exist for speed, not semantics.  Returns the
        popped occurrence so the observed loop can recognize its own
        horizon sentinel.
        """
        nxt = self._next
        if nxt is not None:
            self._next = None
            time, _prio, _seq, event = nxt
        elif self._queue:
            time, _prio, _seq, event = heappop(self._queue)
        else:
            raise SimulationError("step() on an empty event queue")
        if time < self._now:
            raise SimulationError("event queue corrupted: time moved backwards")
        self._now = time
        cls = type(event)
        if cls is _Stop:
            # A bounded run's horizon (or one orphaned by a run that
            # raised, which is skipped): the caller decides.
            return event
        if obs is not None:
            t0 = perf_counter()
        if cls is _Bootstrap:
            process = event.process
            process._resume(event)
            if obs is not None:
                obs._note_event("Bootstrap", process.name, perf_counter() - t0)
            return event
        event._processed = True
        waiter = event._waiter
        name = None
        if waiter is not None:
            name = waiter.name
            event._waiter = None
            waiter._resume(event)
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if obs is not None:
            obs._note_event(cls.__name__, name, perf_counter() - t0)
        if not event._ok and not event.defused:
            raise event._value
        return event

    def _start_run(self, until: float | Event | None) -> tuple[Event | None, _Stop | None]:
        """Once-per-run set-up of ``until``: ``(stop_evt, marker)``.

        An event ``until`` is awaited by both loops with one
        ``_processed`` check per iteration; it must belong to this
        simulator, or the run could never see it fire.  A time
        ``until`` pushes a :class:`_Stop` sentinel at the horizon (at
        ``_AFTER`` priority, i.e. behind every real event scheduled for
        that instant), replacing a per-iteration ``queue[0][0] <=
        horizon`` bound check.  The sentinel is queued, so the loop
        cannot drain the queue without popping it: a bounded run always
        exits at its own marker — with the clock at the horizon — or by
        an exception, which orphans the marker (later runs recognize
        and skip orphans by identity).
        """
        if until is None:
            return None, None
        if isinstance(until, Event):
            if until.sim is not self:
                raise SimulationError("cannot run until an event from another simulator")
            return until, None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon!r}) is in the past (now={self._now!r})"
            )
        marker = _Stop()
        self._seq = seq = self._seq + 1
        _push(self, (horizon, _AFTER, seq, marker))
        return None, marker

    @staticmethod
    def _finish_run(stop_evt: Event | None) -> Any:
        """Once-per-run result: the awaited event's value or failure."""
        if stop_evt is None:
            return None
        if stop_evt._processed:
            if stop_evt._ok:
                return stop_evt._value
            stop_evt.defused = True
            raise stop_evt._value
        raise SimulationError(
            "simulation ran out of events before the awaited event fired"
        )

    def _run_observed(self, until: float | Event | None) -> Any:
        """The observed counterpart of :meth:`run`.

        Drives :meth:`_step` with the observer, so it consumes ``seq``
        numbers and pops events exactly like the fast loop, while
        counting every processed event and attributing host time per
        resumed process.
        """
        obs = self._observer
        t_run = perf_counter()
        try:
            stop_evt, marker = self._start_run(until)
            while self._next is not None or self._queue:
                if stop_evt is not None and stop_evt._processed:
                    break
                if self._step(obs) is marker:
                    break
            return self._finish_run(stop_evt)
        finally:
            try:
                obs.host_run_time += perf_counter() - t_run
            except AttributeError:
                pass

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, time ``until``, or event ``until``.

        Returns the event's value when ``until`` is an event that fired.
        """
        if self._observer is not None:
            return self._run_observed(until)
        # NB: named stop_evt, not stop — the resume block's `except
        # StopIteration as stop` clause deletes `stop` on block exit.
        stop_evt, marker = self._start_run(until)
        # The hot loop: step() inlined with queue/heappop bound to
        # locals, and the parked waiter resumed without a _resume call
        # frame.  Each dispatch arm (Timeout first — it dominates every
        # workload in this repo) only picks the waiter and its value;
        # one shared block resumes it, and a per-class tail finishes
        # the event.  Heap pops are monotone by construction (negative
        # delays are rejected at scheduling time), so the corruption
        # check lives only on the slow _step() path.
        queue = self._queue
        pop = heappop
        free = self._free_timeouts
        cap = self._pool_cap
        while True:
            if stop_evt is not None and stop_evt._processed:
                break
            entry = self._next
            if entry is not None:
                self._next = None
                time, _prio, _seq, event = entry
                # Drop the tuple: the refcount==2 recycle test below
                # must see only this frame's reference to the event.
                entry = None
            elif queue:
                time, _prio, _seq, event = pop(queue)
                if queue and queue[0][0] == time:
                    # Same-instant cohort (a wavefront diagonal firing
                    # together): hoist the next member into the empty
                    # slot so the cohort drains through slotted pops
                    # and pushes during dispatch compare against it
                    # first.
                    self._next = pop(queue)
            else:
                break
            self._now = time
            cls = type(event)
            if cls is Timeout:
                # Timeouts always succeed.
                event._processed = True
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    value = event._value
            elif cls is _Bootstrap:
                waiter = event.process
                value = None
            elif cls is _Stop:
                if event is marker:
                    break
                # Sentinel orphaned by an earlier run that raised: skip.
                continue
            else:
                # Generic event (Process termination, bare Events,
                # conditions).
                event._processed = True
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    if event._ok:
                        value = event._value
                    else:
                        # Failed event: the generic path throws the
                        # failure into the generator.
                        waiter._resume(event)
                        waiter = None
            if waiter is not None:
                self._active_process = waiter
                send = waiter._send
                while True:
                    try:
                        target = send(value)
                    except StopIteration as stop:
                        self._active_process = None
                        waiter._target = None
                        # Inline Event.succeed + _push: process
                        # termination is the spawn/join hot path.
                        if waiter._triggered:
                            raise SimulationError("event already triggered")
                        waiter._triggered = True
                        waiter._ok = True
                        waiter._value = stop.value
                        self._seq = seq = self._seq + 1
                        entry = (time, NORMAL, seq, waiter)
                        nxt = self._next
                        if nxt is None:
                            if queue:
                                heappush(queue, entry)
                            else:
                                self._next = entry
                        elif entry < nxt:
                            self._next = entry
                            heappush(queue, nxt)
                        else:
                            heappush(queue, entry)
                        # Clear the parked-yield local: a stale reference
                        # would defeat the timeout recycle test below.
                        target = None
                        break
                    except BaseException as exc:
                        self._active_process = None
                        waiter._target = None
                        waiter.fail(exc)
                        target = None
                        break
                    if type(target) is Timeout and target.sim is self:
                        if target._processed:
                            value = target._value
                            continue
                        waiter._target = target
                        if target._waiter is None and not target.callbacks:
                            target._waiter = waiter
                        else:
                            target.callbacks.append(waiter._resume)
                        self._active_process = None
                        break
                    if (
                        isinstance(target, Event)
                        and target.sim is self
                        and not target._processed
                    ):
                        waiter._target = target
                        if target._waiter is None and not target.callbacks:
                            target._waiter = waiter
                        else:
                            target.callbacks.append(waiter._resume)
                        self._active_process = None
                        break
                    self._active_process = None
                    waiter._park_slow(target)
                    break
            if cls is Timeout:
                # Callbacks registered after the parked waiter fire after
                # it, preserving registration order; with none, recycle
                # the timeout if the loop holds the only live reference
                # (into the one-deep slot first, the overflow list once
                # the slot is taken).
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                elif cap and getrefcount(event) == 2:
                    if self._free_timeout is None:
                        # callbacks (the original empty list) stays attached.
                        event._value = None
                        event._processed = False
                        self._free_timeout = event
                    elif len(free) < cap:
                        event._value = None
                        event._processed = False
                        free.append(event)
                    else:
                        event.callbacks = None
                else:
                    event.callbacks = None
            elif cls is _Bootstrap:
                # Recycle the two-word marker for the next spawn (the
                # loop holds the only reference once the entry is gone).
                if self._free_bootstrap is None and getrefcount(event) == 2:
                    event.process = None
                    self._free_bootstrap = event
            else:
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
        return self._finish_run(stop_evt)
