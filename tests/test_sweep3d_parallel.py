"""Tests for the distributed KBA sweep: numerics match the sequential
solver; simulated timing matches the analytic wavefront model."""

import numpy as np
import pytest

from repro.comm.mpi import Location, UniformFabric
from repro.comm.transport import Transport
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.perfmodel import SweepMachineParams, WavefrontModel
from repro.sweep3d.quadrature import make_angle_set
from repro.sweep3d.solver import sweep_all_octants
from repro.units import US

FREE_FABRIC = UniformFabric(Transport("free", latency=1e-12, bandwidth=1e18))


def sequential_global(inp, decomp):
    """The sequential sweep of the assembled global problem."""
    global_inp = inp.with_subgrid(
        inp.it * decomp.npe_i, inp.jt * decomp.npe_j, inp.kt
    )
    ang = make_angle_set(inp.mmi)
    src = np.full((global_inp.it, global_inp.jt, global_inp.kt), inp.q)
    phi, _, _ = sweep_all_octants(global_inp, src, ang)
    return phi


# --- decomposition -----------------------------------------------------------------

def test_decomposition_coords_roundtrip():
    dec = Decomposition2D(4, 3)
    for rank in range(dec.size):
        pi, pj = dec.coords(rank)
        assert dec.rank_of(pi, pj) == rank
    with pytest.raises(ValueError):
        dec.coords(12)
    with pytest.raises(ValueError):
        dec.rank_of(4, 0)


def test_decomposition_neighbours():
    dec = Decomposition2D(3, 3)
    center = dec.rank_of(1, 1)
    assert dec.upstream_i(center, +1) == dec.rank_of(0, 1)
    assert dec.downstream_i(center, +1) == dec.rank_of(2, 1)
    assert dec.upstream_i(center, -1) == dec.rank_of(2, 1)
    assert dec.upstream_j(center, +1) == dec.rank_of(1, 0)
    corner = dec.rank_of(0, 0)
    assert dec.upstream_i(corner, +1) is None
    assert dec.upstream_j(corner, +1) is None
    assert dec.downstream_i(dec.rank_of(2, 0), +1) is None


def test_near_square_factorization():
    assert Decomposition2D.near_square(32) == Decomposition2D(8, 4)
    assert Decomposition2D.near_square(36) == Decomposition2D(6, 6)
    assert Decomposition2D.near_square(7) == Decomposition2D(7, 1)
    assert Decomposition2D.near_square(1) == Decomposition2D(1, 1)
    with pytest.raises(ValueError):
        Decomposition2D.near_square(0)


def test_pipeline_depth():
    assert Decomposition2D(8, 4).pipeline_depth == 10
    assert Decomposition2D(1, 1).pipeline_depth == 0


# --- numerics: distributed == sequential ------------------------------------------------

@pytest.mark.parametrize("npe", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 4)])
def test_parallel_flux_matches_sequential(npe):
    inp = SweepInput(it=3, jt=4, kt=6, mk=2, mmi=3)
    dec = Decomposition2D(*npe)
    sweep = ParallelSweep(inp, dec, grind_time=1e-9, fabric=FREE_FABRIC)
    result = sweep.run()
    expected = sequential_global(inp, dec)
    np.testing.assert_allclose(result.phi, expected, rtol=1e-12, atol=1e-13)


def test_parallel_flux_independent_of_transport_speed():
    """Changing link speeds must change time, never physics."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    slow = UniformFabric(Transport("slow", latency=1e-3, bandwidth=1e6))
    phi_fast = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run().phi
    slow_result = ParallelSweep(inp, dec, 1e-9, slow).run()
    np.testing.assert_array_equal(phi_fast, slow_result.phi)


def test_parallel_multiple_iterations_amortize_fill():
    """Per-iteration time with more iterations is at most the single-
    iteration time (the drain of one iteration overlaps the next fill)
    and at least the pure work time."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    grind = 1e-6
    sweep = ParallelSweep(inp, dec, grind_time=grind, fabric=FREE_FABRIC)
    one = sweep.run(iterations=1)
    three = sweep.run(iterations=3)
    work_only = 8 * inp.k_blocks * inp.block_angle_work() * grind
    assert three.iterations == 3
    assert work_only <= three.iteration_time <= one.iteration_time * (1 + 1e-9)


def test_parallel_message_statistics():
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    result = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run()
    # Each octant: 2 k-blocks; boundary links: 2 i-links + 2 j-links,
    # each carrying one message per block per octant.
    expected_msgs = 8 * 2 * (2 + 2)
    assert result.messages == expected_msgs
    surface_bytes = 2 * 2 * 2 * 8  # jt*mk*M*8 == it*mk*M*8 here
    assert result.bytes_sent == expected_msgs * surface_bytes


def test_parallel_validates_arguments():
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    with pytest.raises(ValueError):
        ParallelSweep(inp, dec, grind_time=0.0, fabric=FREE_FABRIC)
    with pytest.raises(ValueError):
        ParallelSweep(inp, dec, 1e-9, FREE_FABRIC, locations=[Location(0)])
    sweep = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC)
    with pytest.raises(ValueError):
        sweep.run(iterations=0)
    with pytest.raises(ValueError):
        sweep.run(source=np.ones((1, 1, 1)))


def test_parallel_custom_source():
    inp = SweepInput(it=2, jt=2, kt=2, mk=1, mmi=2)
    dec = Decomposition2D(1, 1)
    src = np.arange(8, dtype=float).reshape(2, 2, 2)
    result = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run(source=src)
    ang = make_angle_set(2)
    expected, _, _ = sweep_all_octants(inp, src, ang)
    np.testing.assert_allclose(result.phi, expected, rtol=1e-13)


# --- timing: DES vs analytic model --------------------------------------------------------

def test_single_rank_time_is_pure_compute():
    inp = SweepInput(it=2, jt=2, kt=8, mk=2, mmi=2)
    dec = Decomposition2D(1, 1)
    grind = 1e-6
    result = ParallelSweep(inp, dec, grind, FREE_FABRIC).run()
    expected = 8 * inp.k_blocks * inp.block_angle_work() * grind
    assert result.iteration_time == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("npe", [(2, 2), (4, 4), (6, 6)])
def test_des_matches_wavefront_model_square_arrays(npe):
    """The analytic model's fills=2.5 is exact for square arrays with
    negligible communication."""
    inp = SweepInput(it=2, jt=2, kt=10, mk=2, mmi=1)
    dec = Decomposition2D(*npe)
    grind = 1.0 / inp.block_angle_work()  # block time = 1 s
    des = ParallelSweep(inp, dec, grind, FREE_FABRIC).run().iteration_time
    params = SweepMachineParams("test", grind, Transport("free", 1e-12, 1e18))
    model = WavefrontModel(inp, dec, params).iteration_time()
    assert des == pytest.approx(model, rel=1e-6)


def test_des_vs_model_with_real_communication():
    """With a latency/bandwidth transport the two-term model (work pays
    serialization, fill pays full latency) tracks the DES closely."""
    inp = SweepInput(it=3, jt=3, kt=8, mk=2, mmi=2)
    dec = Decomposition2D(4, 4)
    grind = 50e-9
    transport = Transport("ib-ish", latency=2.16 * US, bandwidth=1e9)
    des = ParallelSweep(inp, dec, grind, UniformFabric(transport)).run().iteration_time
    model = WavefrontModel(
        inp, dec, SweepMachineParams("test", grind, transport)
    ).iteration_time()
    assert des == pytest.approx(model, rel=0.02)


def test_des_vs_model_latency_dominated():
    """Fill-dominated regime: pipeline deeper than per-octant work."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=1)
    dec = Decomposition2D(8, 8)
    grind = 100e-9
    transport = Transport("lat", latency=5 * US, bandwidth=1e9)
    des = ParallelSweep(inp, dec, grind, UniformFabric(transport)).run().iteration_time
    model = WavefrontModel(
        inp, dec, SweepMachineParams("test", grind, transport)
    ).iteration_time()
    assert des == pytest.approx(model, rel=0.10)


def test_model_elongated_arrays_underestimates_slightly():
    """For elongated arrays the DES sits at or above the fills=2.5
    model, by less than 15%."""
    inp = SweepInput(it=2, jt=2, kt=10, mk=2, mmi=1)
    for npe in [(8, 1), (16, 2)]:
        dec = Decomposition2D(*npe)
        grind = 1.0 / inp.block_angle_work()
        des = ParallelSweep(inp, dec, grind, FREE_FABRIC).run().iteration_time
        params = SweepMachineParams("test", grind, Transport("free", 1e-12, 1e18))
        model = WavefrontModel(inp, dec, params).iteration_time()
        assert model <= des * (1 + 1e-9)
        assert des <= model * 1.15


# --- distributed source iteration ------------------------------------------------

@pytest.mark.parametrize("npe", [(2, 2), (1, 4)], ids=["2x2", "1x4"])
def test_solve_distributed_matches_sequential_solver(npe):
    """The full distributed source iteration converges to the same flux
    as the sequential solver — scattering update, convergence test and
    all."""
    from repro.sweep3d.solver import solve
    import dataclasses

    inp = SweepInput(it=3, jt=3, kt=4, mk=2, mmi=3, sigma_t=1.0, sigma_s=0.5)
    dec = Decomposition2D(*npe)
    sweep = ParallelSweep(inp, dec, grind_time=1e-9, fabric=FREE_FABRIC)
    result, info = sweep.solve_distributed(max_iterations=100)
    assert info["converged"]

    global_inp = dataclasses.replace(
        inp, it=inp.it * dec.npe_i, jt=inp.jt * dec.npe_j
    )
    sequential = solve(global_inp, max_iterations=100)
    assert info["iterations"] == sequential.iterations
    np.testing.assert_allclose(result.phi, sequential.phi, rtol=1e-11, atol=1e-12)


def test_solve_distributed_reports_nonconvergence():
    inp = SweepInput(it=2, jt=2, kt=2, mk=1, mmi=2, sigma_t=1.0, sigma_s=0.9)
    dec = Decomposition2D(2, 1)
    sweep = ParallelSweep(inp, dec, grind_time=1e-9, fabric=FREE_FABRIC)
    _result, info = sweep.solve_distributed(max_iterations=2)
    assert not info["converged"]
    assert info["iterations"] == 2


def test_solve_distributed_validation():
    inp = SweepInput(it=2, jt=2, kt=2, mk=1, mmi=2)
    sweep = ParallelSweep(inp, Decomposition2D(1, 1), 1e-9, FREE_FABRIC)
    with pytest.raises(ValueError):
        sweep.solve_distributed(max_iterations=0)
