"""Velocity sweeps on random 2:1-balanced 3V meshes.

`build_mesh` refines symmetrically around the origin, so its coarse cells
lie in 1 or 4 pencils of a direction.  Refining random cells instead gives
asymmetric meshes whose coarse cells are split along one transverse axis
(2 pencils), both (4), or by finer cells further along the pencil (up to
16), swept here along every axis.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import velocity_dof_weights
from sldg_vlasov.pencil import classify_conforming, extract_pencils
from sldg_vlasov.tensor import build_permutation
from sldg_vlasov.vmesh import VelocityMesh, _balance_violators, _refine, build_mesh
from sldg_vlasov.vsweep import advect_velocity, build_sweep_plan


def random_balanced_mesh(rng) -> VelocityMesh:
    """2-4 base cells per axis; 1-2 rounds refine a random 30% of the finest
    cells, each followed by refining 2:1 balance violators until none is left."""
    base = build_mesh(3, int(rng.integers(2, 5)), 0, 6.0)
    levels, lo, width = base.levels, base.lo, base.width
    tol = 1e-9 * base.base_width
    for _ in range(int(rng.integers(1, 3))):
        mark = (levels == levels.max()) & (rng.random(len(levels)) < 0.3)
        levels, lo, width = _refine(levels, lo, width, mark)
        while (viol := _balance_violators(levels, lo, width, tol)).any():
            levels, lo, width = _refine(levels, lo, width, viol)
    return VelocityMesh(3, base.radius, base.n_base, levels, lo, width)


def _plan(mesh, degree, direction):
    basis = DGBasis(degree)
    perm = build_permutation(basis, 3)
    pset = classify_conforming(extract_pencils(mesh, direction))
    return basis, perm, pset, build_sweep_plan(mesh, pset, perm, basis)


def _transverse_moment_kernels(mesh, basis, perm, direction):
    """Per-DOF weights of the moments v_a^i v_b^j, 0 <= i, j <= p, over the
    transverse axes (a, b): exact for the DG field, with a (p+2)-point Gauss
    rule across the sweep and the GLL rule along it."""
    p = basis.degree
    gx, gw = np.polynomial.legendre.leggauss(p + 2)
    phi = basis.eval_all(gx)                                   # (n_q, o)
    jac = (0.5 * mesh.width).prod(axis=1)
    kernels = []
    t_dims = [t for t in range(3) if t != direction]
    for i in range(p + 1):
        for j in range(p + 1):
            w = jac[:, None] * basis.weights[perm.forward[:, direction]]
            for t, m in zip(t_dims, (i, j)):
                v = mesh.lo[:, t, None] + 0.5 * (gx + 1.0) * mesh.width[:, t, None]
                g = (gw * v**m) @ phi                          # (n_cells, o)
                w = w * g[:, perm.forward[:, t]]
            kernels.append(w.ravel())
    return np.stack(kernels)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 3),
       direction=st.integers(0, 2))
def test_random_mesh_sweep_properties(seed, degree, direction):
    rng = np.random.default_rng(seed)
    mesh = random_balanced_mesh(rng)
    basis, perm, pset, plan = _plan(mesh, degree, direction)
    # The pencil weights of every cell sum to one, and the restrictions of
    # a shared cell's entries undo their prolongations.
    wsum = np.bincount(pset.cell_ids, weights=pset.weights, minlength=mesh.n_cells)
    assert np.abs(wsum - 1.0).max() <= 1e-14
    for sc in plan.shared:
        n_cells, n_tl, k_lines = sc.restrict.shape
        prolong = plan.prolong[sc.entries].reshape(n_cells, k_lines, n_tl)
        assert np.abs(sc.restrict @ prolong - np.eye(n_tl)).max() <= 1e-13

    speeds = np.concatenate([rng.uniform(-2.0, 2.0, 2), rng.uniform(-60.0, 60.0, 2)])
    f = rng.random((plan.n_dofs, speeds.size))
    hybrid = advect_velocity(f.copy(), speeds, 0.1, plan, bc="periodic")
    slow = advect_velocity(f.copy(), speeds, 0.1, plan, bc="periodic", force_slow=True)
    assert np.abs(hybrid - slow).max() <= 1e-12

    weights = velocity_dof_weights(mesh, basis, perm)[plan.order]
    mass0 = weights @ f
    assert (np.abs(weights @ hybrid - mass0) / mass0).max() <= 1e-13
    # A sweep along one axis leaves every moment in the other two unchanged.
    kernels = _transverse_moment_kernels(mesh, basis, perm, direction)[:, plan.order]
    scale = np.abs(kernels) @ f
    assert (np.abs(kernels @ (hybrid - f)) / scale).max() <= 1e-12


@pytest.mark.parametrize("direction", [0, 1, 2])
def test_transfer_matches_tensor_basis(direction):
    # Each shared entry's prolongation evaluates the cell's tensor basis at
    # the GLL nodes of the entry's transverse rectangle.  Shared entries
    # are ordered by their cell's pencil count, then by cell.  This mesh has
    # cells in 2, 4 and more pencils along every axis.
    mesh = random_balanced_mesh(np.random.default_rng(9))
    basis, perm, pset, plan = _plan(mesh, 2, direction)
    counts = np.bincount(pset.cell_ids)
    shared = np.nonzero(counts[pset.cell_ids] > 1)[0]
    shared = shared[np.lexsort((shared, pset.cell_ids[shared], counts[pset.cell_ids[shared]]))]
    assert {2, 4} < set(counts[pset.cell_ids[shared]])
    cells = pset.cell_ids[shared]
    # The shared classes' rows hold their cells' DOFs shaped (p+1, cells, n_tl).
    cell_at = np.concatenate([plan.order[rows].reshape(basis.n_nodes, -1, len(perm.lines[0]))
                              [0, :, 0] // perm.n_local for rows, _ in plan.shared_classes])
    np.testing.assert_array_equal(cell_at[plan.entry_cells], cells)

    lines = perm.lines[direction]
    t_dims = [t for t in range(3) if t != direction]
    pencil = np.searchsorted(pset.offsets, shared, side="right") - 1
    for e, (c, q) in enumerate(zip(cells, pencil)):
        # Reference coordinates of each line's first node: the sweep axis at
        # its first GLL node, the transverse axes inside the rectangle.
        ref = basis.nodes[perm.forward[lines[:, 0]]]
        for a, t in enumerate(t_dims):
            x = pset.t_lowers[q, a] + 0.5 * (ref[:, t] + 1.0) * pset.t_widths[q, a]
            ref[:, t] = 2.0 * (x - mesh.lo[c, t]) / mesh.width[c, t] - 1.0
        # Tensor basis function lines[s, 0] of the cell at each line's point.
        expect = np.ones((len(lines), len(lines)))
        for d in range(3):
            expect *= basis.eval_all(ref[:, d])[:, perm.forward[lines[:, 0], d]]
        assert np.abs(plan.prolong[e] - expect).max() <= 1e-14, e
