"""What each benchmark workload is: seeds, fixed work unit, size.

Why each workload was chosen is recorded in ``BENCHMARK.json``.

``events_per_op`` is the workload's logical-event count for one op
(engine dispatches plus cohort-batched deliveries, as measured by the
obs recorder on the unmodified code).  It is a fixed work unit:
``events_per_s`` divides this constant by the measured op time, so an
algorithmic change to the event census never moves the metric by
itself — the traced run reports the measured census next to it
(``census.logical_events``), and a change there shows as a count.

``held_out_seed`` is never used while tuning a change; a claimed gain
must also hold on it.
"""

from __future__ import annotations

#: the reduced per-rank tile of the full-machine runs (ROADMAP headline)
TILE = dict(it=2, jt=2, kt=8, mk=4, mmi=2)

#: seconds per cell-angle charged to the simulated clock
GRIND_S = 1e-6

#: per-rank grind jitter of sparse_replay (uniform, +-10%)
GRIND_JITTER = 0.10

#: campaign shape: a cold pass of COLD_JOBS fresh jobs, then a pass of
#: the same size whose first half repeats the cold pass's second half
COLD_JOBS = 400
CAMPAIGN_WORKERS = 2
#: executed jobs whose artifact is recomputed inline per round
CAMPAIGN_SAMPLE = 3

WORKLOADS = {
    "fullmachine": dict(
        ranks=3060, iterations=1, fabric="uniform",
        events_per_op=343_512,
        default_seed=1, held_out_seed=2,
    ),
    "sparse_replay": dict(
        ranks=1020, iterations=10, fabric="hop_aware",
        events_per_op=1_113_720,
        default_seed=1, held_out_seed=2,
    ),
    "campaign": dict(
        # per job: the op that sweep_s times on this workload
        events_per_op=520,
        default_seed=1, held_out_seed=2,
    ),
}
