"""The state layout: velocity rows in sweep-plan order, stored x-major.

`Simulation.f` is the transpose view of a C-contiguous (n_x_dofs,
n_velocity_dofs) array whose rows follow `sweep_plan.order`.  These tests
pin that layout, map it back to the cell-local DOF order where they
compare with the cell-local set-up, and check that the advections give
the same bits on the stored layout as on a C-contiguous copy of f.
"""
import tracemalloc

import numpy as np
import pytest

from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import (
    SimConfig,
    Simulation,
    maxwellian,
    velocity_dof_coords,
    velocity_dof_weights,
)
from sldg_vlasov.vmesh import build_mesh
from sldg_vlasov.vsweep import advect_velocity, build_sweep_plan, sweep_pencil
from sldg_vlasov.xfield import advect_x

# 3V uniform, 3V with one and two AMR levels (shared coarse cells), 1V AMR.
CONFIGS = {
    "q2-4-0": SimConfig(dim=3, n_base=4, levels=0, degree=2, n_x=8),
    "q2-4-1p": SimConfig(dim=3, n_base=4, levels=1, degree=2, n_x=8, bc="periodic"),
    "q1-4-2p": SimConfig(dim=3, n_base=4, levels=2, degree=1, n_x=8, bc="periodic"),
    "1v-8-2": SimConfig(dim=1, n_base=8, levels=2, degree=3, n_x=8),
}


def cell_local(rows, order):
    """`rows` (indexed by plan row) rearranged into cell-local DOF order."""
    out = np.empty_like(rows)
    out[order] = rows
    return out


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def sim(request):
    return Simulation(CONFIGS[request.param])


def test_order_is_permutation(sim):
    order = sim.sweep_plan.order
    assert np.array_equal(np.sort(order), np.arange(sim.sweep_plan.n_dofs))


def test_state_is_x_major_view(sim):
    store = sim.f.base
    assert sim.f.shape == (sim.sweep_plan.n_dofs, sim.xgrid.n_dofs)
    assert sim.f.T.flags.c_contiguous and store.flags.c_contiguous
    assert store.shape == sim.f.T.shape and np.shares_memory(store, sim.f)


def test_coordinates_follow_order(sim):
    order = sim.sweep_plan.order
    coords = velocity_dof_coords(sim.mesh, sim.basis, sim.perm)
    weights = velocity_dof_weights(sim.mesh, sim.basis, sim.perm)
    assert np.array_equal(sim.vcoords, coords[order])
    assert np.array_equal(sim.vweights, weights[order])


def test_initial_state_is_cell_local_sample_permuted(sim):
    # The cell-local sample, velocity factor times x factor, in plan order.
    c = sim.config
    gv = maxwellian(velocity_dof_coords(sim.mesh, sim.basis, sim.perm), c.dim)
    gx = 1.0 + c.perturbation * np.cos(c.wave_number * sim.xgrid.dof_coords)
    expect = gv[:, None] * gx[None, :]
    assert np.array_equal(cell_local(sim.f, sim.sweep_plan.order), expect)


def test_x_runs_are_contiguous_position_blocks(sim):
    # Each speed group's rows go as runs of consecutive rows, and every run
    # is made of whole lines: all n_tl transverse nodes of a sweep position.
    n_tl = len(sim.perm.lines[0])
    for g in sim.x_plan.groups:
        covered = np.concatenate([np.arange(r.start, r.stop) for r in g.runs])
        assert np.array_equal(covered, g.rows)
        assert all((r.stop - r.start) % n_tl == 0 for r in g.runs)
    if sim.mesh.levels.max() == 0:
        # A uniform mesh has one group, and a run holds all of its lines.
        n_lines = sim.sweep_plan.groups[0].n_lines
        assert all((r.stop - r.start) % n_lines == 0
                   for g in sim.x_plan.groups for r in g.runs)


def test_one_dimensional_plan_keeps_cell_local_order():
    # sweep_pencil relies on it when it sweeps values given in cell order.
    basis = DGBasis(2)
    mesh = build_mesh(1, 6, 2, 6.0)
    plan = build_sweep_plan(mesh, basis)
    assert np.array_equal(plan.order, np.arange(plan.n_dofs))


@pytest.mark.parametrize("key", ["q2-4-1p", "1v-8-2"])
def test_advections_independent_of_memory_order(key):
    # The stored x-major layout and a C-contiguous copy give the same bits,
    # as perfbench's hybrid check relies on (it sweeps a C-contiguous copy).
    # 3V AMR with shared cells, and a 1V mesh, the plan sweep_pencil uses.
    sim = Simulation(CONFIGS[key])
    sim.step()
    e_field = sim.field_solve()
    assert (e_field != 0.0).all()
    copy = np.ascontiguousarray(sim.f)
    assert copy.flags.c_contiguous and not sim.f.flags.c_contiguous
    for bc in ("absorbing", "periodic"):
        a = advect_velocity(sim.f.copy(order="F"), e_field, 0.1, sim.sweep_plan, bc=bc)
        b = advect_velocity(copy.copy(), e_field, 0.1, sim.sweep_plan, bc=bc)
        assert np.array_equal(a, b), bc
    for plan in (sim.x_plan, sim.x_plan_full):
        a = advect_x(sim.f.copy(order="F"), plan)
        b = advect_x(copy.copy(), plan)
        assert np.array_equal(a, b)


def test_sweep_pencil_matches_c_contiguous_sweep():
    # sweep_pencil sweeps an x-major copy of its lines; the same lines as
    # the columns of a C-contiguous field give the same bits.
    sim = Simulation(CONFIGS["1v-8-2"])
    widths = sim.mesh.width[:, 0]
    lines = sim.f.T.reshape(-1, len(widths), sim.basis.n_nodes)
    speeds = np.full(len(lines), 7.3)
    for bc in ("absorbing", "periodic"):
        a = sweep_pencil(lines, widths, speeds[0], 0.1, bc, sim.basis)
        b = advect_velocity(np.ascontiguousarray(sim.f), speeds, 0.1, sim.sweep_plan, bc=bc)
        assert np.array_equal(a.reshape(b.T.shape), b.T), bc


# The most of f's size that one step may allocate at once.  The velocity
# sweep holds every group's operators for all moving columns of a sweep
# (the x columns here), and while it assembles a mixed group, that group's
# slow-path overlap temporaries; its per-block working arrays
# (_COLUMN_BLOCK columns: the mixed groups' working blocks and products,
# into which shared cells are prolonged straight from f) are smaller.
# The x-advection holds two products of one run of equal-speed rows (at
# most two of the 4 (p+1) sweep positions).  The per-step peak measured
# 0.126 (uniform), 0.259 (amr) and 0.364 (two levels) of f: the more cells
# a mesh sends to the slow path, the higher its peak.  A step that copied
# or permuted the whole field would allocate at least f.nbytes.
PEAK_SHARE = 0.5


@pytest.mark.parametrize("config", [
    SimConfig(dim=3, n_base=4, levels=0, degree=3, n_x=128),
    SimConfig(dim=3, n_base=4, levels=1, degree=2, n_x=128, bc="periodic"),
    SimConfig(dim=3, n_base=4, levels=2, degree=2, n_x=64, bc="periodic"),
], ids=["uniform", "amr", "amr-two-levels"])
def test_step_allocates_well_below_the_field(config):
    sim = Simulation(config)
    sim.step()
    tracemalloc.start()
    try:
        sim.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_SHARE * sim.f.nbytes, (peak, sim.f.nbytes)
