"""Cross-dimension oracle: a uniform 3V run is a 1V run times the transverse Maxwellian.

On a uniform velocity mesh the transverse velocities neither move nor
couple: the v-sweep runs along v_x only, the x-step's speed is v_x, and
the initial state is a product of a v_x factor and the transverse
Maxwellian.  So every transverse line of the 3V state evolves as the 1V
state does, once both see the same field.  The 3V charge density carries
the transverse quadrature of the Maxwellian, c per transverse axis, so the
1V state is scaled by c**2 before it runs.  The reference shares none of
the 3V structure: the tensor permutation, the pencils with transverse
lines, the sweep plan's row order and the x-step's speed groups.
"""
from dataclasses import replace

import numpy as np
import pytest

from sldg_vlasov.driver import SimConfig, Simulation, maxwellian

CASES = {
    "q3-4-0": SimConfig(dim=3, n_base=4, levels=0, degree=3, n_x=16, perturbation=0.05,
                        n_steps=20),
    "q3-4-0p": SimConfig(dim=3, n_base=4, levels=0, degree=3, n_x=16, perturbation=0.05,
                         n_steps=20, bc="periodic"),
    "q5-4-0": SimConfig(dim=3, n_base=4, levels=0, degree=5, n_x=16, perturbation=0.05,
                        n_steps=20),
}


def vx_position(sim):
    """(v_x cell, v_x node) of every velocity row of a uniform-mesh run."""
    n_local = sim.perm.n_local
    cell, local = np.divmod(sim.sweep_plan.order, n_local)
    mesh = sim.mesh
    vx_cell = np.rint((mesh.lo[cell, 0] + mesh.radius) / mesh.base_width).astype(int)
    return vx_cell, sim.perm.forward[local, 0]


@pytest.mark.parametrize("key", sorted(CASES))
def test_uniform_3v_run_equals_scaled_1v_run(key):
    sim3 = Simulation(CASES[key])
    sim1 = Simulation(replace(CASES[key], dim=1))
    c = sim1.vweights @ maxwellian(sim1.vcoords, 1)
    sim1.f *= c**2
    res3, res1 = sim3.run(), sim1.run()

    # 1V row of each 3V row, by (v_x cell, v_x node).
    row_of = np.full((sim1.config.n_base, sim1.basis.n_nodes), -1)
    row_of[vx_position(sim1)] = np.arange(sim1.sweep_plan.n_dofs)
    match = row_of[vx_position(sim3)]
    assert (match >= 0).all()
    assert np.array_equal(sim3.vcoords[:, 0], sim1.vcoords[match, 0])

    transverse = maxwellian(sim3.vcoords[:, 1:], 2) / c**2
    expect = sim1.f[match] * transverse[:, None]
    assert np.abs(sim3.f - expect).max() <= 1e-12 * np.abs(sim3.f).max()
    e3 = np.array([r.e_max for r in res3.records])
    e1 = np.array([r.e_max for r in res1.records])
    assert len(e3) == 21
    assert (np.abs(e3 - e1) <= 1e-12 * np.abs(e1)).all()
