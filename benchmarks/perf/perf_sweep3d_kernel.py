"""Perf of the Sweep3D numeric layer: plan kernels, batched octants, runs.

The smoke tier is the bit-identity contract of the sweep-plan rewrite:

* the plan-driven ``sweep_octant`` / ``sweep_octant_fixup`` against the
  git-seed kernels on mixed grids (scalar and array ``sigma_t``,
  degenerate 1-wide axes — the BLAS one-row reduction edge cases);
* the 8-octant batched sweep against the per-octant loop, for both
  kernels, through ``sweep_all_octants`` (flux, leakage, reflected
  influx) and at the raw face level;
* the current solver stack against the seed solver driving the seed
  kernels, including reflective faces and ``face_memory`` hand-off
  across sweeps (where the batched path must *not* engage);
* ``ParallelSweep.run(iterations=N)``, which computes its flux once,
  against the 1-iteration run and the seed commit's N-iteration run,
  which computed every iteration — flux, counts, iteration time;
* the BLAS property the batched ``BoundKernel`` rests on: a stacked
  ``(B, n, M) @ w`` reduces each block as that block's own matmul.

The measured tier times the kernel micro-benchmark, a sequential solve,
and an 8-iteration parallel run against the seed baselines and records
them under ``sweep3d_kernel`` in ``BENCH_perf.json``.
"""

from __future__ import annotations

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
from repro.sweep3d.cellport import grind_time
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.fixup import sweep_octant_fixup
from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import sweep_octant
from repro.sweep3d import parallel
from repro.sweep3d.placement import cell_fabric, spe_locations
from repro.sweep3d.quadrature import make_angle_set
from repro.sweep3d.solver import ALL_REFLECTIVE, solve, sweep_all_octants

#: (I, J, K, mmi) smoke grids: the parallel block shape, cubes, and the
#: degenerate 1-wide axes that exercise the one-row BLAS reduction path.
SMOKE_GRIDS = [
    (5, 5, 20, 6),
    (4, 4, 4, 3),
    (7, 3, 2, 6),
    (1, 4, 3, 2),
    (3, 1, 5, 4),
    (2, 2, 2, 1),
    (1, 1, 1, 1),
]

#: the sequential-solve measured workload (single K-block: pure numerics)
SOLVE_INP = SweepInput(it=16, jt=16, kt=16, mk=16, mmi=6)
SOLVE_ITERATIONS = 4

#: the 8-iteration measured workload: the perf_sweep3d_parallel
#: configuration (published as ``replay_run8_s``)
RUN8_INP = SweepInput(it=5, jt=5, kt=40, mk=20, mmi=6)
RUN8_DECOMP = Decomposition2D(8, 4)

MIN_SOLVE_SPEEDUP = 3.0


def _seed(relpath: str, name: str):
    mod = load_seed_module(relpath, name)
    if mod is None:
        raise SkipCase("seed modules unavailable (no git history)")
    return mod


def _cases(rng, I, J, K, mmi):
    ang = make_angle_set(mmi)
    M = ang.n_angles
    src = rng.uniform(0.05, 2.0, (I, J, K))
    inflows = (
        rng.uniform(0.0, 4.0, (J, K, M)),
        rng.uniform(0.0, 4.0, (I, K, M)),
        rng.uniform(0.0, 4.0, (I, J, M)),
    )
    sigmas = (0.75, rng.uniform(0.5, 8.0, (I, J, K)))
    return ang, src, inflows, sigmas


def _check_plan_kernels_vs_seed():
    seed_kernel = _seed("src/repro/sweep3d/kernel.py", "_seed_s3d_kernel")
    seed_fixup = _seed("src/repro/sweep3d/fixup.py", "_seed_s3d_fixup")
    rng = np.random.default_rng(31)
    pairs = [
        (sweep_octant, seed_kernel.sweep_octant),
        (sweep_octant_fixup, seed_fixup.sweep_octant_fixup),
    ]
    for I, J, K, mmi in SMOKE_GRIDS:
        ang, src, inflows, sigmas = _cases(rng, I, J, K, mmi)
        for sigma in sigmas:
            for now, then in pairs:
                got = now(sigma, src, 0.3, 0.4, 0.5, ang, *inflows)
                want = then(sigma, src, 0.3, 0.4, 0.5, ang, *inflows)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (now.__name__, I, J, K, mmi)


def _check_batched_vs_per_octant():
    """The 8-octant batched path and the octant loop are the same sweep:
    identical flux, leakage and (zero) reflected influx, both kernels."""
    rng = np.random.default_rng(32)
    for I, J, K, mmi in SMOKE_GRIDS:
        inp = SweepInput(it=I, jt=J, kt=K, mk=K, mmi=mmi)
        ang = make_angle_set(mmi)
        src = rng.uniform(0.05, 2.0, (I, J, K))
        for kernel in (sweep_octant, sweep_octant_fixup):
            loop = sweep_all_octants(inp, src, ang, kernel=kernel, batched=False)
            fast = sweep_all_octants(inp, src, ang, kernel=kernel, batched=True)
            assert np.array_equal(loop[0], fast[0])
            assert loop[1] == fast[1]
            assert loop[2] == fast[2]


def _check_solver_stack_vs_seed():
    """The full current stack (plan kernels + auto-batching) against the
    seed solver driving the seed kernels — vacuum, reflective, and
    fixup-with-face-memory sweeps."""
    seed_solver = _seed("src/repro/sweep3d/solver.py", "_seed_s3d_solver")
    seed_kernel = _seed("src/repro/sweep3d/kernel.py", "_seed_s3d_kernel")
    seed_fixup = _seed("src/repro/sweep3d/fixup.py", "_seed_s3d_fixup")
    inp = SweepInput(it=5, jt=4, kt=6, mk=6, mmi=6, sigma_t=2.0, sigma_s=0.8)
    ang = make_angle_set(inp.mmi)
    src = np.full((inp.it, inp.jt, inp.kt), inp.q)
    pairs = [
        (sweep_octant, seed_kernel.sweep_octant),
        (sweep_octant_fixup, seed_fixup.sweep_octant_fixup),
    ]
    for reflective in (frozenset(), ALL_REFLECTIVE):
        for now_kernel, then_kernel in pairs:
            mem_now: dict = {}
            mem_then: dict = {}
            for _sweep in range(3):  # face_memory hand-off across sweeps
                got = sweep_all_octants(
                    inp, src, ang, kernel=now_kernel,
                    reflective=reflective, face_memory=mem_now,
                )
                want = seed_solver.sweep_all_octants(
                    inp, src, ang, kernel=then_kernel,
                    reflective=reflective, face_memory=mem_then,
                )
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1] and got[2] == want[2]


def _parallel_run(mod, iterations: int):
    dec = Decomposition2D(4, 2)
    sweep = mod.ParallelSweep(
        SweepInput(it=3, jt=3, kt=8, mk=2, mmi=2),
        dec,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=cell_fabric(),
        locations=spe_locations(dec),
    )
    return sweep.run(iterations=iterations)


def _check_iterations_vs_single_run():
    """A fixed-source N-iteration run computes its flux once: the flux
    equals the 1-iteration run's bit for bit, the message, byte and
    compute counts are N times its counts, and flux and iteration time
    equal the seed commit's N-iteration run, which computed every
    iteration inside the DES."""
    one = _parallel_run(parallel, 1)
    three = _parallel_run(parallel, 3)
    assert np.array_equal(one.phi, three.phi)
    assert three.messages == 3 * one.messages
    assert three.bytes_sent == 3 * one.bytes_sent
    assert three.compute_time_per_rank == 3 * one.compute_time_per_rank
    seed = _seed("src/repro/sweep3d/parallel.py", "_seed_s3d_parallel")
    full = _parallel_run(seed, 3)
    assert np.array_equal(full.phi, three.phi)
    assert full.iteration_time == three.iteration_time
    assert full.messages == three.messages
    assert full.bytes_sent == three.bytes_sent


def _check_stacked_matmul_vs_per_block():
    """The batched ``BoundKernel`` rests on BLAS reducing each block of
    a stacked ``(B, n, M) @ w`` exactly as that block's own ``(n, M)``
    matmul, and each ``(B, 1, M) @ w`` fix-up row exactly as the
    one-row ``@`` — a property of the BLAS build, pinned here so an
    upgrade that breaks it fails loudly (flattening the stack to
    ``(B*n, M)`` does change the sums)."""
    rng = np.random.default_rng(33)
    for M in (3, 6, 12, 24):
        w = rng.uniform(0.01, 1.0, M)
        for n in range(1, 9):
            for B in (2, 33, 60):
                stack = rng.uniform(-4.0, 4.0, (B, n, M))
                blocks = np.matmul(stack, w)
                for r in range(n):
                    rows = np.matmul(stack[:, r:r + 1], w)[:, 0]
                    for b in range(B):
                        assert rows[b] == stack[b, r] @ w, (M, n, B, r)
                for b in range(B):
                    assert np.array_equal(blocks[b], np.matmul(stack[b], w)), (M, n, B)


@perftest
class SweepKernelIdentity(PerfTest):
    """Smoke tier: the rewrite's bit-identity contract."""

    name = "sweep3d_kernel_identity"
    title = "sweep3d: plan kernels, batching, solver stack, iterations, BLAS"
    tiers = ("smoke",)
    params = {
        "check": ["plan_kernels", "batched", "solver_stack", "iterations",
                  "blas_stack"]
    }

    _CHECKS = {
        "plan_kernels": _check_plan_kernels_vs_seed,
        "batched": _check_batched_vs_per_octant,
        "solver_stack": _check_solver_stack_vs_seed,
        "iterations": _check_iterations_vs_single_run,
        "blas_stack": _check_stacked_matmul_vs_per_block,
    }

    def sanity(self, case: Case):
        self._CHECKS[case.check]()
        return None


# -- measured tier -------------------------------------------------------------

def _kernel_micro(kernel, n_calls: int = 64):
    ang = make_angle_set(6)
    I, J, K, M = 5, 5, 20, ang.n_angles
    src = np.full((I, J, K), 1.0)
    ins = (np.zeros((J, K, M)), np.zeros((I, K, M)), np.zeros((I, J, M)))
    def run():
        for _ in range(n_calls):
            kernel(1.0, src, 0.1, 0.1, 0.1, ang, *ins)
    return run


def _solve_current():
    return solve(SOLVE_INP, max_iterations=SOLVE_ITERATIONS)


def _make_solve_seed(seed_solver, seed_kernel):
    # The seed solver's module-level `sweep_octant` import resolves to
    # the *current* kernel; rebind it so the baseline is the real
    # seed-era numeric stack.
    seed_solver.sweep_octant = seed_kernel.sweep_octant
    return lambda: seed_solver.solve(SOLVE_INP, max_iterations=SOLVE_ITERATIONS)


def _parallel_run8():
    sweep = parallel.ParallelSweep(
        RUN8_INP,
        RUN8_DECOMP,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=cell_fabric(),
        locations=spe_locations(RUN8_DECOMP),
    )
    return sweep.run(iterations=8)


@perftest
class SweepKernelThroughput(PerfTest):
    """Measured tier: kernel micro, sequential solve, 8-iteration run."""

    name = "sweep3d_kernel"
    title = "sweep3d: kernel/solve/run wall-clock vs the seed stack"
    tiers = ("measured",)
    section = "sweep3d_kernel"
    # The floor binds only when git history provides the seed baseline,
    # exactly like the old `if "solve_speedup" in payload` guard.
    references = {"solve_speedup": Floor(MIN_SOLVE_SPEEDUP, required=False)}

    def measure(self, case: Case):
        seed_solver = load_seed_module(
            "src/repro/sweep3d/solver.py", "_seed_s3d_solver_m"
        )
        seed_kernel = load_seed_module(
            "src/repro/sweep3d/kernel.py", "_seed_s3d_kernel_m"
        )
        metrics: dict = {}
        if seed_kernel is not None:
            micro = paired_seconds(
                {
                    "current": _kernel_micro(sweep_octant),
                    "seed": _kernel_micro(seed_kernel.sweep_octant),
                },
                repeats=5,
            )
            metrics["kernel_current_s"] = round(micro["current"], 4)
            metrics["kernel_seed_s"] = round(micro["seed"], 4)
            metrics["kernel_speedup"] = round(micro["seed"] / micro["current"], 2)
        if seed_solver is not None and seed_kernel is not None:
            times = paired_seconds(
                {
                    "current": _solve_current,
                    "seed": _make_solve_seed(seed_solver, seed_kernel),
                },
                repeats=3,
            )
            metrics["solve_current_s"] = round(times["current"], 4)
            metrics["solve_seed_s"] = round(times["seed"], 4)
            metrics["solve_speedup"] = round(times["seed"] / times["current"], 2)
        metrics["replay_run8_s"] = round(
            best_seconds(_parallel_run8, repeats=3), 4
        )
        return metrics

    def publish(self, metrics):
        return {
            "config": (
                f"kernel: 5x5x20 block x64 calls; solve: it=jt=kt=16 mmi=6 "
                f"x{SOLVE_ITERATIONS} iterations; replay: 8x4 ranks x8 iterations"
            ),
            "min_required_solve_speedup": MIN_SOLVE_SPEEDUP,
            **dict(metrics["default"]),
        }


install_pytest_tests(globals())
