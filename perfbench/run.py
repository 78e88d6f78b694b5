"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fullmachine --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the simulator is imported from
``src/`` there.  ``BENCHMARK.json`` declares the workloads and the
metrics; ``perfbench/spec.py`` holds each workload's size, seeds and
fixed work unit; ``perfbench/README.md`` maps layers to metrics.

``--trace 0`` measures end to end: ops are repeated (a fresh
``gc.collect()`` before each), at least ``MIN_OPS`` times and then
until the next one would overrun ``--seconds``, and the result carries
every ``end_to_end`` metric.
``--trace 1`` is the traced run: one untraced op, then ops with every
layer boundary wrapped (``perfbench.layers``), and the result carries
every ``per_layer`` metric (zero where a workload never enters a
layer).  Every op's outputs are checked; an op that fails its check
counts as failed.  The last line of standard output is the result
object; the lines before it are a human-readable report.

Set-up time is measured in child processes (``--setup-probe``), each
importing the simulator, generating the inputs and constructing the
workload from a cold interpreter; the median of ``SETUP_PROBES`` is
reported.

Every end-to-end time is CPU seconds (user plus system) of the
processes doing the work, not wall seconds: the host is shared, and
time the hypervisor or another process takes from the benchmark's CPUs
is not charged to it.  The report line also carries the wall seconds
and the host's steal time over the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
#: timed ops per end-to-end run even when they overrun ``--seconds``:
#: a median of one op is too noisy on a shared host
MIN_OPS = 2
#: BLAS is pinned to one thread: the simulator is single-threaded per
#: process, and campaign workers already fill the cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fullmachine", "sparse_replay", "campaign")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, workdir: pathlib.Path):
    if name == "campaign":
        from perfbench.campaign import CampaignWorkload

        return CampaignWorkload(seed, workdir)
    from perfbench.sweeps import SweepWorkload

    return SweepWorkload(name, seed)


def children_cpu_s() -> float:
    """CPU seconds of every reaped child process (and its own reaped
    children, such as campaign workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup(args) -> float:
    """CPU seconds a fresh interpreter takes to set the workload up."""
    c0 = children_cpu_s()
    subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed)],
        check=True,
    )
    return children_cpu_s() - c0


def host_steal_s() -> float:
    """Seconds the hypervisor has taken from this host's CPUs since
    boot (0 where ``/proc/stat`` does not say)."""
    try:
        fields = pathlib.Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- the two run modes ---------------------------------------------------------

class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, jobs: int, errors: list[str]) -> None:
        self.attempted += jobs
        self.failed += min(jobs, len(errors))
        self.errors += errors[: max(0, 5 - len(self.errors))]


def run_ops(op, seconds: float, min_ops: int = 1) -> list:
    """Repeat ``op`` at least ``min_ops`` times, then until the next
    repetition would overrun ``seconds``."""
    done = []
    start = perf_counter()
    while True:
        gc.collect()
        done.append(op())
        if (len(done) >= min_ops
                and perf_counter() - start + done[-1].seconds > seconds):
            return done


def checked_op(wl, tally: Tally, clock=None):
    """One op of ``wl`` (traced when ``clock`` is given), checked."""
    from perfbench.layers import traced

    with traced(clock) if clock is not None else contextlib.nullcontext():
        done = wl.op(clock)
    tally.add(done.jobs, wl.check(done))
    return done


def measure(name: str, wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics over timed ops (checks run outside the op
    timing), plus report fields."""
    from perfbench.spec import WORKLOADS as SPEC

    values, report = wl.end_to_end(
        run_ops(lambda: checked_op(wl, tally), seconds, MIN_OPS))
    values["events_per_s"] = SPEC[name]["events_per_op"] / values["sweep_s"]
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return values, report


def trace(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: the census op (if any) and one untraced op,
    then traced ops for the rest of ``seconds``."""
    from perfbench.layers import LayerClock

    start = perf_counter()
    census = wl.census_op()
    if census is not None:
        tally.add(census.jobs, wl.check(census))
    gc.collect()
    untraced = checked_op(wl, tally)
    clock = LayerClock()
    ops = run_ops(lambda: checked_op(wl, tally, clock),
                  seconds - (perf_counter() - start))
    return (wl.layer_metrics(clock, ops, untraced,
                             census if census is not None else untraced),
            {"samples": len(ops)})


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Every temporary file (campaign stores, journals, worker leases)
    # stays inside the checkout.
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    # Import this package by name, not its files as top-level modules.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    if args.seed is None:
        from perfbench.spec import WORKLOADS as SPEC

        args.seed = SPEC[args.workload]["default_seed"]
    try:
        if args.setup_probe:
            wl = make_workload(args.workload, args.seed, workdir)
            if args.workload == "campaign":
                wl.spawn_pool()
            return 0
        return run(args, declared, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:     # another run still has its directory there
            pass


def run(args, declared: dict, workdir: pathlib.Path) -> int:
    tally = Tally()
    steal0 = host_steal_s()
    if args.trace:
        wl = make_workload(args.workload, args.seed, workdir)
        values, report = trace(wl, args.seconds, tally)
        specs = declared["per_layer"]
    else:
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
        wl = make_workload(args.workload, args.seed, workdir)
        values, report = measure(args.workload, wl, args.seconds, tally)
        values["setup_s"] = statistics.median(setup)
        report["setup_probes"] = setup
        specs = declared["end_to_end"]
    unknown = set(values) - {m["name"] for m in specs}
    if unknown:
        raise KeyError(f"undeclared metrics: {sorted(unknown)}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in specs}
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  host=host_fingerprint(), attempted=tally.attempted,
                  failed_share=tally.failed / tally.attempted,
                  errors=tally.errors, host_steal_s=host_steal_s() - steal0)
    print(json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
