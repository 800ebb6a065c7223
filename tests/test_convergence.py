"""Orders of accuracy: the velocity sweep against an exact translate in
space, and the Strang-split solver against a fine-step run in time."""

import copy

import numpy as np
import pytest

from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import SimConfig, Simulation
from sldg_vlasov.vmesh import build_mesh
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
