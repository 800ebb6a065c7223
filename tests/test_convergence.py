"""Orders of accuracy: the velocity sweep against an exact translate in
space, and the Strang-split solver against a fine-step run in time; and
what refining the bulk of the Maxwellian buys over `build_mesh`'s rule."""

import copy

import numpy as np
import pytest

from sldg_vlasov import driver
from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import SimConfig, Simulation
from sldg_vlasov.vmesh import VelocityMesh, build_mesh
from sldg_vlasov.vsweep import sweep_pencil

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
