"""Orders of accuracy: the velocity sweep against an exact translate in
space, in 1V and across 3V refinement interfaces, and the Strang-split
solver against a fine-step run in time; and what refining the bulk of the
Maxwellian buys over `build_mesh`'s rule."""

import copy
import itertools

import numpy as np
import pytest

from sldg_vlasov import driver
from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import SimConfig, Simulation
from sldg_vlasov.vmesh import VelocityMesh, _refine, build_mesh
from sldg_vlasov.vsweep import advect_velocity, build_sweep_plan, sweep_pencil

from test_random_mesh import random_balanced_mesh

RADIUS = 6.0
SPEED, DT, N_SWEEPS = 0.37, 0.1, 10
N_BASES = (8, 16, 32, 64)
GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(8)


def profile(v):
    # Smooth, with period 6, so it is periodic on [-6, 6].
    return np.exp(-np.sin(np.pi * v / 6.0) ** 2)


def translate_error(degree, n_base, levels):
    """L2 error after N_SWEEPS periodic sweeps of the L2-projected profile."""
    basis = DGBasis(degree)
    mesh = build_mesh(1, n_base, levels, RADIUS)
    order = np.argsort(mesh.lo[:, 0])
    lo, widths = mesh.lo[order, 0], mesh.width[order, 0]
    points = lo[:, None] + 0.5 * (GAUSS_X + 1.0) * widths[:, None]  # (n_cells, 8)
    phi = basis.eval_all(GAUSS_X)  # (8, p+1)
    # Nodal values of the L2 projection, cell by cell on the reference cell.
    values = (profile(points) * GAUSS_W) @ phi @ basis.mass_inv
    for _ in range(N_SWEEPS):
        values = sweep_pencil(values, widths, SPEED, DT, "periodic", basis)
    exact = profile(points - N_SWEEPS * SPEED * DT)
    err2 = (0.5 * widths[:, None] * GAUSS_W * (values @ phi.T - exact) ** 2).sum()
    return np.sqrt(err2)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_sweep_converges_at_order_p_plus_one(degree):
    # Measured orders over the last two doublings are at least 1.90 (p = 1),
    # 3.10 (p = 2) and 4.10 (p = 3), on every level count.
    errors = {levels: np.array([translate_error(degree, nb, levels) for nb in N_BASES])
              for levels in (0, 1, 2)}
    for levels, err in errors.items():
        orders = np.log2(err[:-1] / err[1:])
        assert (orders[-2:] >= degree + 0.7).all(), (levels, orders)
        # Refinement never makes the error worse than the uniform mesh's.
        assert (err <= errors[0]).all(), (levels, err, errors[0])


def box_mesh(n_base):
    """3V mesh on [-6, 6]^3: level 1 on the fixed off-centre box
    |v_x - 1.5|, |v_y|, |v_z + 1.5| < 3, level 0 elsewhere.  From Nb 8 on
    the box is exactly the refined region (960 cells at Nb 8, 7,680 at 16)."""
    base = build_mesh(3, n_base, 0, RADIUS)
    centre = np.array([1.5, 0.0, -1.5])
    inside = ((base.lo >= centre - 3.0 - 1e-9)
              & (base.lo + base.width <= centre + 3.0 + 1e-9)).all(axis=1)
    levels, lo, width = _refine(base.levels, base.lo, base.width, inside)
    return VelocityMesh(3, RADIUS, n_base, levels, lo, width)


def refined(mesh):
    """`mesh` with every cell split into 8: the same interfaces, twice the base cells."""
    everything = np.ones(mesh.n_cells, dtype=bool)
    levels, lo, width = _refine(mesh.levels, mesh.lo, mesh.width, everything)
    return VelocityMesh(3, mesh.radius, 2 * mesh.n_base, levels - 1, lo, width)


def interface_cells(mesh):
    """Mask of the cells that touch a cell of another level (by a face, an
    edge or a corner, periodically), read off a raster of the finest cells."""
    finest = mesh.width.min()
    n = round(2 * mesh.radius / finest)
    lo = np.round((mesh.lo + mesh.radius) / finest).astype(np.int64)
    hi = lo + np.round(mesh.width / finest).astype(np.int64)
    owner = np.empty((n,) * 3, dtype=np.int64)
    for c, (a, b) in enumerate(zip(lo, hi)):
        owner[a[0]:b[0], a[1]:b[1], a[2]:b[2]] = c
    level = np.pad(mesh.levels[owner].astype(np.int8), 1, mode="wrap")
    near = [level[i:i + n, j:j + n, k:k + n] for i, j, k in itertools.product(range(3), repeat=3)]
    mixed = np.max(near, axis=0) != np.min(near, axis=0)
    return np.bincount(owner[mixed], minlength=mesh.n_cells) > 0


SPEEDS_3V = np.array([0.37, -1.1, 2.9])
GAUSS3_X, GAUSS3_W = np.polynomial.legendre.leggauss(4)  # exact for the p <= 2 error terms
GAUSS3_W3 = np.einsum("a,b,c->abc", GAUSS3_W, GAUSS3_W, GAUSS3_W)


def profile_3v(v):
    # Smooth, non-separable, with period 12 along each axis.
    return np.exp(np.sin(np.pi * (v[..., 0] + v[..., 1] + v[..., 2]) / 6.0))


def interface_error(mesh, degree):
    """RMS error on the interface cells after N_SWEEPS periodic v_x sweeps
    of the L2-projected 3V profile, one column per speed of SPEEDS_3V."""
    basis = DGBasis(degree)
    plan = build_sweep_plan(mesh, basis)
    unit = 0.5 * (GAUSS3_X + 1.0)
    unit = np.stack(np.meshgrid(unit, unit, unit, indexing="ij"), axis=-1)  # (4, 4, 4, 3)
    touch = interface_cells(mesh)
    points = mesh.lo[:, None, None, None] + unit * mesh.width[:, None, None, None]
    phi = basis.eval_all(GAUSS3_X)  # (4, p+1)
    to_nodes = phi @ basis.mass_inv
    # Nodal values of the L2 projection, cell by cell, axis by axis.
    nodal = np.einsum("cabg,ai,bj,gk->cijk", profile_3v(points) * GAUSS3_W3,
                      to_nodes, to_nodes, to_nodes, optimize=True)
    node = plan.perm.forward  # node index along each axis of every cell-local DOF
    rows = nodal[:, node[:, 0], node[:, 1], node[:, 2]].ravel()[plan.order]
    f = np.repeat(rows[:, None], SPEEDS_3V.size, axis=1)
    for _ in range(N_SWEEPS):
        advect_velocity(f, SPEEDS_3V, DT, plan, "periodic")
    cells = np.empty_like(f)
    cells[plan.order] = f
    nodal = np.zeros((mesh.n_cells, SPEEDS_3V.size) + (degree + 1,) * 3)
    nodal[:, :, node[:, 0], node[:, 1], node[:, 2]] = (
        cells.reshape(mesh.n_cells, -1, SPEEDS_3V.size).transpose(0, 2, 1))
    got = np.einsum("csijk,ai,bj,gk->csabg", nodal[touch], phi, phi, phi, optimize=True)
    moved = np.multiply.outer(N_SWEEPS * DT * SPEEDS_3V, [1.0, 0.0, 0.0])[:, None, None, None]
    exact = profile_3v(points[touch, None] - moved)
    volume = mesh.width[touch].prod(axis=1)
    err2 = (GAUSS3_W3 * (got - exact) ** 2).sum(axis=(2, 3, 4)) * volume[:, None] / 8.0
    return np.sqrt(err2.sum(axis=0) / volume.sum())


@pytest.mark.parametrize("degree", [1, 2])
def test_3v_sweep_keeps_order_across_refinement_interfaces(degree):
    # The v_x sweep moves mass between levels through the shared cells'
    # transverse prolongation and restriction.  On the cells touching a
    # level interface, the error keeps order p + 1.  Measured orders over the
    # last doubling, for speeds 0.37, -1.1 and 2.9: fixed box (Nb 8 -> 16)
    # 1.95, 2.05, 2.17 (p = 1) and 2.95, 3.07, 3.06 (p = 2); random meshes 2
    # and 3 refined twice (12,160 and 12,608 cells) at least 1.94 and 2.91.
    # Prolonging the coarse cells to the wrong transverse nodes, pairing
    # their lines by index, or restricting with a lumped mass brings them to
    # at most 1.0 (p = 1) and 2.0 (p = 2).
    # At Nb 4 the box refines only 2 cells, so the doubling from there is
    # not asserted.
    pairs = {"box": (box_mesh(8), box_mesh(16))}
    for seed in (2, 3):
        mesh = refined(random_balanced_mesh(np.random.default_rng(seed)))
        pairs[f"random mesh {seed}"] = (mesh, refined(mesh))
    for name, (coarse, fine) in pairs.items():
        err = np.array([interface_error(mesh, degree) for mesh in (coarse, fine)])
        orders = np.log2(err[0] / err[1])
        assert (orders >= degree + 0.7).all(), (name, err, orders)


def landau(dt):
    """1X1V Landau run to T = 2: synced f at T, and the largest relative change
    of the total energy of the synced state over the steps."""
    sim = Simulation(SimConfig(dim=1, n_base=64, levels=0, degree=3, n_x=32, degree_x=3,
                               perturbation=0.05, bc="periodic", dt=dt,
                               n_steps=round(2.0 / dt)))
    e0 = sim.diagnostics(sim.field_solve()).e_total
    drift = 0.0
    for _ in range(sim.config.n_steps):
        sim.step()
        # The state at t, with the pending half x-step applied and its own field.
        synced = copy.copy(sim)
        synced.f = np.copy(sim.f)
        synced.sync()
        drift = max(drift, abs(synced.diagnostics(synced.field_solve()).e_total - e0) / abs(e0))
    sim.sync()
    return sim.f, drift


def test_strang_splitting_is_second_order_in_time():
    # Measured: max|f - f_ref| 5.15e-5, 1.27e-5 and 3.03e-6 for dt = 0.2, 0.1
    # and 0.05 against dt = 0.0125 (ratios 4.05 and 4.19); energy drift of the
    # synced state 5.24e-5, 1.31e-5 and 3.26e-6 (ratios 4.01 and 4.01).
    ref, _ = landau(0.0125)
    runs = [landau(dt) for dt in (0.2, 0.1, 0.05)]
    errors = np.array([np.abs(f - ref).max() for f, _ in runs])
    drifts = np.array([drift for _, drift in runs])
    for name, values in (("f", errors), ("energy", drifts)):
        orders = np.log2(values[:-1] / values[1:])
        assert (orders >= 1.8).all(), (name, values, orders)


def bulk_mesh():
    """1V mesh on [-6, 6] with base width 3: level 2 (width 0.75) on |v| < 3,
    level 1 (width 1.5) on 3 <= |v| <= 6, 12 cells."""
    widths = np.array([1.5] * 2 + [0.75] * 8 + [1.5] * 2)
    lo = -RADIUS + np.concatenate([[0.0], np.cumsum(widths[:-1])])
    levels = np.round(np.log2(3.0 / widths)).astype(np.int64)
    return VelocityMesh(1, RADIUS, 4, levels, lo[:, None], widths[:, None])


def emax_history(degree, n_base=4, levels=0):
    """E_max over 100 periodic 1V steps of dt 0.1."""
    config = SimConfig(dim=1, n_base=n_base, levels=levels, degree=degree, bc="periodic",
                       n_steps=100)
    return np.array([r.e_max for r in Simulation(config).run().records])


def test_bulk_refinement_beats_origin_refinement(monkeypatch):
    # `build_mesh` refines only the cells nearest the origin, so at L = 2 a
    # 1V mesh has width 0.75 on |v| < 1.5 only.  The bulk mesh has it on all
    # of |v| < 3.  E_max errors against Nb 16 p = 5, relative to its max:
    # build_mesh L = 2 3.23e-2 (p = 3) and 3.2e-3 (p = 5); bulk 6.48e-3 and
    # 2.49e-5, ratios 5.0 and 129.  This documents what the mesh buys; it
    # does not bound the solver.
    ref = emax_history(5, n_base=16)
    for degree, gain in ((3, 3.0), (5, 30.0)):
        origin = emax_history(degree, levels=2)
        with monkeypatch.context() as m:
            m.setattr(driver, "build_mesh", lambda *args: bulk_mesh())
            bulk = emax_history(degree)
        errors = [np.abs(e - ref).max() / ref.max() for e in (origin, bulk)]
        assert errors[0] >= gain * errors[1], (degree, errors)
