"""The campaign workload: a closed loop from one client.

One *op* is a round on a fresh store: a cold pass of ``COLD_JOBS``
default ``sweep`` jobs, then a mixed pass of as many jobs whose first
half repeats the cold pass's second half (exactly half are store hits),
both through the public ``CampaignService.run`` with a journal.  The
client submits the next pass only when the previous one has returned.

Per-job latency is taken from the progress stream, as the client sees
it: from the job's ``started`` event to its ``finished`` event.  Each
pass's CPU seconds are the client's own plus those of its worker
processes, which the pool reaps before ``run`` returns.

The checks run inside the op, after both passes and outside their
timing, so a round keeps only counts and times: a run holds every
round, and holding reports and artifacts would make peak memory grow
with the round count.

Checks: no job fails; the cold pass executes every job; the mixed
pass's hit ratio is exactly 0.5 and its hits equal the cold pass's
artifacts; a seeded sample of executed artifacts equals an inline
``run_job`` of the same spec.
"""

from __future__ import annotations

import os
import pathlib
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from perfbench.spec import CAMPAIGN_SAMPLE, CAMPAIGN_WORKERS, COLD_JOBS
from repro.campaign.scenarios import run_job
from repro.campaign.service import CampaignReport, CampaignService, grid
from repro.campaign.store import ArtifactStore


@dataclass
class Pass:
    """One ``CampaignService.run`` call as the client saw it."""

    report: CampaignReport
    #: wall and CPU (client plus workers) seconds of the call
    seconds: float
    cpu_s: float
    #: started -> finished seconds per executed job
    latencies: list
    #: queued -> started seconds per executed job
    waits: list

    def slim(self) -> "Pass":
        """This pass with its report reduced to the counts the metrics
        read (no outcomes, no artifacts)."""
        r = self.report
        counts = CampaignReport(
            [], submitted=r.submitted, cached_hits=r.cached_hits,
            executed=r.executed,
            counters={"campaign.crash_attempts":
                      r.counters.get("campaign.crash_attempts", 0)})
        return Pass(counts, self.seconds, self.cpu_s, self.latencies,
                    self.waits)


@dataclass
class Round:
    cold: Pass
    mixed: Pass
    errors: list

    @property
    def jobs(self) -> int:
        return self.cold.report.submitted + self.mixed.report.submitted

    @property
    def seconds(self) -> float:
        return self.cold.seconds + self.mixed.seconds

    @property
    def cpu_s(self) -> float:
        return self.cold.cpu_s + self.mixed.cpu_s


class CampaignWorkload:
    """Job specs, op and output checks of the campaign workload."""

    def __init__(self, seed: int, workdir: pathlib.Path):
        first = seed * 10_000
        half = COLD_JOBS // 2
        self.cold = grid("sweep", range(first, first + COLD_JOBS))
        self.mixed = grid("sweep", range(first + half, first + half + COLD_JOBS))
        self.workers = min(CAMPAIGN_WORKERS, os.cpu_count() or 1)
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def spawn_pool(self) -> None:
        """Start (and stop) a worker pool on a two-job pass: the pool
        spawn cost set-up includes."""
        CampaignService(workers=self.workers).run(self.cold[:2])

    def op(self, clock=None) -> Round:
        """One round, checked.  The campaign layers are traced in the
        client process by the caller's ``traced(clock)``; nothing here
        needs the clock."""
        root = pathlib.Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            service = CampaignService(ArtifactStore(root / "store"),
                                      workers=self.workers)
            cold = _timed_pass(service, self.cold, root / "cold.journal")
            mixed = _timed_pass(service, self.mixed, root / "mixed.journal")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        errors = self._errors(cold.report, mixed.report)
        return Round(cold.slim(), mixed.slim(), errors)

    def check(self, rnd: Round) -> list[str]:
        """Why the round's outputs are wrong, one entry per bad job."""
        return rnd.errors

    def _errors(self, cold: CampaignReport, mixed: CampaignReport) -> list[str]:
        errors = [f"job {o.spec.seed} failed: {o.error}"
                  for o in cold.outcomes + mixed.outcomes if o.state != "done"]
        if cold.executed != len(self.cold):
            errors.append(f"cold pass executed {cold.executed} jobs")
        half = len(self.mixed) // 2
        if mixed.cache_hit_rate != 0.5:
            errors += [f"mixed hit ratio {mixed.cache_hit_rate}"] * len(self.mixed)
        cold_tail = cold.artifacts()[len(self.cold) - half:]
        errors += [f"hit {i} differs from its cold artifact"
                   for i, (a, b) in enumerate(zip(mixed.artifacts()[:half],
                                                  cold_tail)) if a != b]
        for i in self.rng.choice(len(self.cold), CAMPAIGN_SAMPLE, replace=False):
            if cold.outcomes[i].artifact != run_job(self.cold[i]):
                errors.append(f"job {self.cold[i].seed} differs from run_job")
        return errors

    def census_op(self) -> None:
        """No separate census op: the store and journal counts come
        from the traced rounds themselves."""
        return None

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, rounds: list[Round]) -> tuple[dict, dict]:
        """Medians over rounds of ``sweep_s`` (cold-pass CPU seconds per
        executed job) and ``jobs_per_s`` (every job of the round over
        its CPU seconds), plus the wall-clock service metrics."""
        per_job = [r.cold.cpu_s / r.cold.report.executed for r in rounds]
        return ({"sweep_s": statistics.median(per_job),
                 "jobs_per_s": statistics.median(
                     r.jobs / r.cpu_s for r in rounds)},
                {"rounds": len(rounds), "cpu_s_per_job": per_job,
                 "round_wall_s": [r.seconds for r in rounds],
                 **service_metrics(rounds)})

    def layer_metrics(self, clock, rounds, untraced, census) -> dict:
        """Service metrics of the untraced round (``census`` is that
        round too: no separate census op); worker, store and
        journal metrics of the traced rounds: counts and store/journal
        seconds per round, job and queue-wait seconds as the mean over
        executed jobs."""
        k = len(rounds)
        passes = [p for r in rounds for p in (r.cold, r.mixed)]
        latencies = _latencies(rounds)
        waits = [x for p in passes for x in p.waits]
        gets = clock.calls["store.get"]
        hits = sum(p.report.cached_hits for p in passes)
        base = statistics.median(_latencies([untraced]))
        return {
            **service_metrics([untraced]),
            "workers.executed": sum(p.report.executed for p in passes) / k,
            "workers.retries": sum(
                p.report.counters.get("campaign.crash_attempts", 0)
                for p in passes) / k,
            "workers.job_s": statistics.fmean(latencies),
            "workers.wait_s": statistics.fmean(waits),
            "workers.utilization": sum(latencies) / (
                self.workers * sum(p.seconds for p in passes)),
            "store.gets": gets / k,
            "store.hits": hits / k,
            "store.puts": clock.calls["store.put"] / k,
            "store.get_s": clock.seconds["store.get"] / k,
            "store.put_s": clock.seconds["store.put"] / k,
            "store.hit_ratio": hits / gets,
            "journal.records": clock.calls["journal"] / k,
            "journal.write_s": clock.seconds["journal"] / k,
            "trace.sweep_s": statistics.median(latencies),
            "trace.untraced_sweep_s": base,
            "trace.overhead": statistics.median(latencies) / base,
        }


def _latencies(rounds: list[Round]) -> list[float]:
    return [x for r in rounds for p in (r.cold, r.mixed) for x in p.latencies]


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_pass(service: CampaignService, specs, journal) -> Pass:
    queued: dict[int, float] = {}
    started: dict[int, float] = {}
    latencies: list[float] = []
    waits: list[float] = []

    def progress(event) -> None:
        now = perf_counter()
        if event.event == "queued":
            queued[event.index] = now
        elif event.event == "started":
            started[event.index] = now
        elif event.event == "finished":
            latencies.append(now - started[event.index])
            waits.append(started[event.index] - queued[event.index])

    c0, t0 = _cpu_s(), perf_counter()
    report = service.run(specs, progress, journal=str(journal))
    return Pass(report, perf_counter() - t0, _cpu_s() - c0, latencies, waits)


def service_metrics(rounds: list[Round]) -> dict:
    """Cold/mixed throughput (median over rounds) and job latency
    percentiles (over every executed job)."""
    p50, p95 = np.percentile(_latencies(rounds), [50, 95])
    return {
        "service.cold_jobs_per_s": float(np.median(
            [r.cold.report.submitted / r.cold.seconds for r in rounds])),
        "service.mixed_jobs_per_s": float(np.median(
            [r.mixed.report.submitted / r.mixed.seconds for r in rounds])),
        "service.job_p50_s": float(p50),
        "service.job_p95_s": float(p95),
    }

