"""Declarative perf/scaling test framework (ReFrame-style, miniature).

A perf test is *data plus two hooks*: it declares its parameter space
(ranks, tile shapes, workload names, ...), a
**sanity check** (bit-identity against the git-seed implementation or a
property of the result), and **perf references** (floors, ceilings, and
tolerance bands over the metrics it measures).  The runner owns
everything the old hand-rolled ``benchmarks/perf`` scripts each
re-invented: parameter expansion, git-seed baseline capture, skip/xfail
policy, floor enforcement, report assembly, and the
``BENCH_perf.json`` artifact (format 2, with in-place migration of
format-1 files).

Execution vehicles, same declarations:

* ``python -m repro perftest`` — the standalone runner (CI smoke and
  the nightly measured tier);
* ``pytest benchmarks/perf`` — via :mod:`.pytest_bridge`, which turns
  every declaration into parameterized pytest items (the ``--perf-full``
  option gates the measured tier exactly as before).

See ``docs/PERFORMANCE.md`` for the test anatomy and the baseline
lifecycle.
"""

from benchmarks.framework.bands import (
    Band,
    Ceiling,
    Floor,
    Reference,
    check_references,
)
from benchmarks.framework.core import (
    REGISTRY,
    Case,
    PerfTest,
    SkipCase,
    perftest,
)
from benchmarks.framework.gitseed import (
    load_seed_engine,
    load_seed_module,
    seed_commit,
)
from benchmarks.framework.report import (
    BENCH_FORMAT,
    BENCH_JSON,
    load_bench,
    update_bench_section,
)
from benchmarks.framework.runner import run, run_case, run_measured_test
from benchmarks.framework.timing import (
    best_rate,
    best_seconds,
    paired_rates,
    paired_seconds,
    timeline_fingerprint,
)

__all__ = [
    "Band",
    "Ceiling",
    "Floor",
    "Reference",
    "check_references",
    "REGISTRY",
    "Case",
    "PerfTest",
    "SkipCase",
    "perftest",
    "load_seed_engine",
    "load_seed_module",
    "seed_commit",
    "BENCH_FORMAT",
    "BENCH_JSON",
    "load_bench",
    "update_bench_section",
    "run",
    "run_case",
    "run_measured_test",
    "best_rate",
    "best_seconds",
    "paired_rates",
    "paired_seconds",
    "timeline_fingerprint",
]
