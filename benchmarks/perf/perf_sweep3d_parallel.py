"""End-to-end perf of the distributed sweep, plus its determinism oracle.

``ParallelSweep`` is the heaviest consumer of the DES kernel, SimMPI
and the transport curves at once, so it measures the composite effect
of every fast path in this package.  The smoke tier runs a small 8x4
sweep and degenerate layouts (1x7, 5x1, 3x4, 1x1 on an odd tile) twice
and asserts the full determinism contract — bit-identical flux field,
simulated iteration time and traced MPI event timeline — and checks
each layout bit for bit against the seed commit's sweep layer.
The measured tier times the same configuration against the seed
commit's ``parallel.py`` with the seed-commit ``sweep_octant`` injected
into it — the genuine pre-PR numeric stack, not the seed sweep layer
running over today's kernel — and records both wall-clock times in
``BENCH_perf.json``, holding the ISSUE's >= 2x end-to-end floor.
"""

from __future__ import annotations

import hashlib

import numpy as np

from benchmarks.framework import (
    Case,
    Floor,
    PerfTest,
    SkipCase,
    best_seconds,
    load_seed_module,
    paired_seconds,
    perftest,
)
from benchmarks.framework.pytest_bridge import install_pytest_tests
from repro.hardware.cell import POWERXCELL_8I
from repro.sim.trace import Tracer
from repro.sweep3d import parallel as current_parallel
from repro.sweep3d.cellport import grind_time
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.placement import cell_fabric, spe_locations

#: one simulated triblade: 8x4 SPE tile, reduced K extent
INP = SweepInput(it=5, jt=5, kt=40, mk=20, mmi=6)
DECOMP = Decomposition2D(8, 4)

#: the determinism oracles' layouts: the triblade, then degenerate and
#: elongated process arrays on an odd tile (uneven wavefront diagonals,
#: one-row BLAS reductions, single-rank and single-line arrays)
ODD_TILE = SweepInput(it=3, jt=2, kt=6, mk=3, mmi=3)
LAYOUTS = {
    "8x4": (INP, DECOMP),
    "1x7": (ODD_TILE, Decomposition2D(1, 7)),
    "5x1": (ODD_TILE, Decomposition2D(5, 1)),
    "3x4": (ODD_TILE, Decomposition2D(3, 4)),
    "1x1": (ODD_TILE, Decomposition2D(1, 1)),
}

MIN_E2E_SPEEDUP = 2.0


def _run(mod, tracer=None, layout="8x4"):
    inp, decomp = LAYOUTS[layout]
    sweep = mod.ParallelSweep(
        inp,
        decomp,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=cell_fabric(),
        locations=spe_locations(decomp),
        **({"tracer": tracer} if tracer is not None else {}),
    )
    return sweep.run()


def _trace_fingerprint(tracer: Tracer) -> str:
    h = hashlib.sha256()
    for rec in tracer.records:
        h.update(repr((rec.time, rec.category, rec.source, rec.detail)).encode())
        h.update(b";")
    return h.hexdigest()


@perftest
class ParallelSweepDeterminism(PerfTest):
    """Smoke tier: the distributed sweep's determinism contract."""

    name = "sweep3d_parallel_determinism"
    title = "sweep3d parallel: bit-identical runs and seed-layer identity"
    tiers = ("smoke",)
    params = {"oracle": ["twice", "seed"], "layout": list(LAYOUTS)}

    def sanity(self, case: Case):
        if case.oracle == "twice":
            t1, t2 = Tracer(), Tracer()
            r1 = _run(current_parallel, tracer=t1, layout=case.layout)
            r2 = _run(current_parallel, tracer=t2, layout=case.layout)
            assert r1.iteration_time == r2.iteration_time
            assert r1.messages == r2.messages
            assert np.array_equal(r1.phi, r2.phi)
            assert len(t1.records) > 0 or r1.messages == 0  # 1x1: no traffic
            assert _trace_fingerprint(t1) == _trace_fingerprint(t2)
        else:
            # The timing-only DES plus the batched whole-domain flux
            # pass produces bit-identical results to the seed commit's
            # sweep layer, which computed each block inside its rank.
            seed = load_seed_module(
                "src/repro/sweep3d/parallel.py", "_seed_sweep3d_parallel"
            )
            if seed is None:
                raise SkipCase("seed sweep layer unavailable (no git history)")
            r_seed = _run(seed, layout=case.layout)
            r_now = _run(current_parallel, layout=case.layout)
            assert r_now.iteration_time == r_seed.iteration_time
            assert r_now.messages == r_seed.messages
            assert r_now.bytes_sent == r_seed.bytes_sent
            assert np.array_equal(r_now.phi, r_seed.phi)
        return None


@perftest
class ParallelSweepThroughput(PerfTest):
    """Measured tier: end-to-end wall-clock vs the pre-PR stack."""

    name = "sweep3d_parallel"
    title = "sweep3d parallel: end-to-end wall-clock vs the seed stack"
    tiers = ("measured",)
    section = "sweep3d_parallel"
    # Binds only when git history provides the seed baseline.
    references = {"speedup": Floor(MIN_E2E_SPEEDUP, required=False)}

    def measure(self, case: Case):
        seed = load_seed_module(
            "src/repro/sweep3d/parallel.py", "_seed_sweep3d_parallel"
        )
        metrics: dict = {}
        if seed is not None:
            seed_kernel = load_seed_module(
                "src/repro/sweep3d/kernel.py", "_seed_sweep3d_kernel_p"
            )
            if seed_kernel is not None:
                # The seed sweep layer imports the *current* kernel;
                # rebind it so the baseline is the full pre-PR stack.
                seed.sweep_octant = seed_kernel.sweep_octant
            times = paired_seconds(
                {
                    "current": lambda: _run(current_parallel),
                    "seed": lambda: _run(seed),
                },
                repeats=4,
            )
            metrics["current_s"] = round(times["current"], 4)
            metrics["seed_stack_s"] = round(times["seed"], 4)
            metrics["speedup"] = round(times["seed"] / times["current"], 2)
        else:
            metrics["current_s"] = round(
                best_seconds(lambda: _run(current_parallel), repeats=3), 4
            )
        return metrics

    def publish(self, metrics):
        return {
            "config": "8x4 SPE tile, it=jt=5 kt=40 mk=20 mmi=6",
            "min_required_speedup": MIN_E2E_SPEEDUP,
            **dict(metrics["default"]),
        }


install_pytest_tests(globals())
