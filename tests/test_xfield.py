import numpy as np
import pytest

from sldg_vlasov.basis import DGBasis
from sldg_vlasov.sldg1d import apply_update, index_runs, shift_matrices
from sldg_vlasov.driver import maxwellian, velocity_dof_coords, velocity_dof_weights
from sldg_vlasov.tensor import build_permutation
from sldg_vlasov.vmesh import build_mesh
from sldg_vlasov.xfield import (
    PoissonSolver,
    XGrid,
    advect_sums,
    advect_x,
    field_energy,
    group_sums,
    precompute_x_matrices,
)

from oracle import projection_oracle

LENGTH = 4.0 * np.pi  # 2 pi / k with k = 0.5


@pytest.fixture(scope="module")
def xgrid():
    return XGrid(64, 2, LENGTH)


def test_xgrid_layout(xgrid):
    assert xgrid.n_dofs == 64 * 3
    assert abs(xgrid.h - LENGTH / 64) < 1e-15
    assert abs(xgrid.dof_weights.sum() - LENGTH) < 1e-12
    with pytest.raises(ValueError):
        XGrid(2, 2, LENGTH)
    # A non-integer count used to truncate, and a nan or inf length gave nan
    # or inf cell widths with only RuntimeWarnings.
    for n_cells in (8.7, 8.0, True):
        with pytest.raises(ValueError, match="n_cells"):
            XGrid(n_cells, 2, LENGTH)
    for length in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="length"):
            XGrid(8, 2, length)
    # A non-numeric length used to raise a bare TypeError from the comparison.
    for length in ("3.0", None, 1 + 2j):
        with pytest.raises(ValueError, match="length"):
            XGrid(8, 2, length)


def test_precompute_zero_speed_identity(xgrid):
    plan = precompute_x_matrices(xgrid, np.array([0.0, 1.3]), 0.05)
    zero = [g for g in plan.groups if g.decomp.n_shift == 0 and g.decomp.frac == 0.0]
    assert len(zero) == 1
    np.testing.assert_array_equal(zero[0].decomp.same, np.eye(3))


def test_precompute_dedup_equal_speeds(xgrid):
    speeds = np.array([0.7, -0.2, 0.7, 0.7, -0.2])
    plan = precompute_x_matrices(xgrid, speeds, 0.05)
    assert len(plan.groups) == 2
    sizes = sorted(len(g.rows) for g in plan.groups)
    assert sizes == [2, 3]


def test_precompute_partition_of_unity(xgrid):
    speeds = np.array([0.31, -2.7, 5.9])
    plan = precompute_x_matrices(xgrid, speeds, 0.05)
    w = xgrid.basis.weights
    for g in plan.groups:
        assert np.abs(w @ (g.decomp.same + g.decomp.neighbor) - w).max() < 1e-12


@pytest.mark.parametrize("speeds", [
    [0.7, -0.2, 0.0, 0.7, 0.7, 3.9, -0.2, -5.1, 0.7],  # 0.7 and -0.2 recur apart
    [0.0, -0.0, 1.3, -0.0, 0.0, 0.0, 1.3, -0.0],        # signed zeros mix in one group
    [2.5],
    np.random.default_rng(4).choice([-1.1, 0.0, 0.4, 2.2], size=200),
])
def test_precompute_groups_rows_and_runs(xgrid, speeds):
    # One group per distinct speed, ascending, holding its rows and their
    # maximal runs of consecutive rows, as np.unique and index_runs give
    # them; each group's shift is that speed's, bit for bit.  The dt and
    # dt/2 plans share their rows and runs.
    speeds = np.asarray(speeds, dtype=float)
    uniq, inverse = np.unique(speeds, return_inverse=True)
    half = precompute_x_matrices(xgrid, speeds, 0.05)
    full = precompute_x_matrices(xgrid, speeds, 0.1)
    assert half.n_cells == full.n_cells == xgrid.n_cells
    assert len(half.groups) == len(full.groups) == len(uniq)
    for dt, plan in ((0.05, half), (0.1, full)):
        want = shift_matrices(xgrid.basis, uniq, dt, xgrid.h)
        for u, g in enumerate(plan.groups):
            rows = np.nonzero(inverse == u)[0]
            np.testing.assert_array_equal(g.rows, rows)
            assert g.runs == index_runs(rows)
            assert (g.decomp.n_shift, g.decomp.frac) == (want.n_shift[u], want.frac[u])
            np.testing.assert_array_equal(g.decomp.same, want.same[u])
            np.testing.assert_array_equal(g.decomp.neighbor, want.neighbor[u])


def test_precompute_rejects_nonfinite(xgrid):
    with pytest.raises(ValueError):
        precompute_x_matrices(xgrid, np.array([np.nan]), 0.05)


def test_advect_x_zero_speeds_bitwise(xgrid):
    rng = np.random.default_rng(3)
    f = rng.standard_normal((5, xgrid.n_dofs))
    plan = precompute_x_matrices(xgrid, np.zeros(5), 0.05)
    before = f.copy()
    advect_x(f, plan)
    assert np.array_equal(f, before)


def test_advect_x_integer_shift_cyclic(xgrid):
    rng = np.random.default_rng(5)
    f = rng.standard_normal((1, xgrid.n_dofs))
    speed = 3.0 * xgrid.h / 0.05
    plan = precompute_x_matrices(xgrid, np.array([speed]), 0.05)
    expect = np.roll(f.reshape(1, 64, 3), 3, axis=1).reshape(1, -1)
    advect_x(f, plan)
    np.testing.assert_array_equal(f, expect)


def test_advect_x_mass_per_row(xgrid):
    rng = np.random.default_rng(7)
    f = rng.standard_normal((4, xgrid.n_dofs))
    speeds = np.array([0.9, -1.7, 0.33, 4.2])
    plan = precompute_x_matrices(xgrid, speeds, 0.05)
    mass0 = f @ xgrid.dof_weights
    advect_x(f, plan)
    mass1 = f @ xgrid.dof_weights
    assert np.abs((mass1 - mass0) / mass0).max() <= 1e-13


def test_advect_x_commutes_with_row_permutation(xgrid):
    rng = np.random.default_rng(8)
    f = rng.standard_normal((5, xgrid.n_dofs))
    speeds = rng.uniform(-2, 2, size=5)
    perm = rng.permutation(5)
    fa = f.copy()
    advect_x(fa, precompute_x_matrices(xgrid, speeds, 0.05))
    fb = f[perm].copy()
    advect_x(fb, precompute_x_matrices(xgrid, speeds[perm], 0.05))
    np.testing.assert_array_equal(fb, fa[perm])


def test_advect_x_fractional_shifts_match_oracle():
    # Fractional shifts through the x-major layout the driver uses: f.T is
    # contiguous, so each run of equal-speed rows is a strided block of it.
    # Two rows share a speed but are not adjacent, so their group has two runs.
    rng = np.random.default_rng(12)
    xg = XGrid(6, 3, 3.0)
    dt = 0.05
    cells = np.array([-1.37, 2.61, -1.37, -8.2, 0.0, 2.61, 2.61])
    speeds = cells * xg.h / dt
    f0 = rng.standard_normal((speeds.size, xg.n_dofs))
    f = np.ascontiguousarray(f0.T).T
    advect_x(f, precompute_x_matrices(xg, speeds, dt))
    for row, speed in enumerate(speeds):
        want = projection_oracle(f0[row].reshape(6, 4), speed * dt, xg.h, xg.basis)
        assert np.abs(f[row] - want.ravel()).max() <= 1e-12


def test_advect_x_shared_scratch_matches_apply_update_per_run():
    # The runs of one x-step share one rolled scratch with one window view
    # per run length.  This plan on an odd 5-cell grid has runs of lengths
    # 4, 2, 3 and 1 in the order they are applied (groups by ascending
    # speed, runs in row order), so shorter runs reuse a scratch a longer
    # run filled; a shift of -7.25 cells (more than one period); and an
    # integer shift of -2 cells whose pair is [0 | I].  advect_x must give
    # the bits of apply_update on a copy of each run, in either memory order.
    rng = np.random.default_rng(25)
    xg = XGrid(5, 2, 5.0)
    cells = np.array([0.37] * 3 + [-7.25] * 4 + [0.0] + [-2.0] * 2 + [0.37] + [6.6] * 2)
    plan = precompute_x_matrices(xg, cells, 1.0)
    assert plan.run_lengths == (1, 2, 3, 4)
    applied = [r.stop - r.start for g in plan.groups if g.moving for r in g.runs]
    assert applied == [4, 2, 3, 1, 2]
    integer = plan.groups[1]
    assert (integer.decomp.n_shift, integer.decomp.frac) == (-2, 0.0)
    np.testing.assert_array_equal(integer.pair, np.hstack([np.zeros((3, 3)), np.eye(3)]))
    assert plan.groups[0].decomp.n_shift == -8

    f0 = rng.standard_normal((cells.size, xg.n_dofs))
    want = f0.copy()
    for g in plan.groups:
        if g.moving:
            for run in g.runs:
                block = f0[run].T.reshape(5, 3, -1).copy()
                want[run] = apply_update(block, g.decomp).reshape(xg.n_dofs, -1).T
    for row, shift in enumerate(cells):
        exact = projection_oracle(f0[row].reshape(5, 3), shift, xg.h, xg.basis)
        assert np.abs(want[row] - exact.ravel()).max() <= 1e-12
    for f in (f0.copy(), np.ascontiguousarray(f0.T).T):
        assert advect_x(f, plan) is f
        np.testing.assert_array_equal(f, want)


def density(f, speeds, weights, xgrid):
    """Charge density of f as the sum of its speed groups' weighted sums."""
    plan = precompute_x_matrices(xgrid, speeds, 0.1)
    return group_sums(f, plan, np.asarray(weights)[None])[:, 0].sum(axis=0)


def test_group_sums_zero():
    xg = XGrid(4, 1, LENGTH)
    speeds = np.array([0.5, 0.5, -1.0, 0.0, 0.5, 2.0, 2.0, -1.0])
    plan = precompute_x_matrices(xg, speeds, 0.1)
    sums = group_sums(np.zeros((8, xg.n_dofs)), plan, np.ones((2, 8)))
    assert sums.shape == (4, 2, xg.n_dofs)
    assert np.array_equal(sums, np.zeros_like(sums))
    assert np.array_equal(density(np.zeros((8, xg.n_dofs)), speeds, np.ones(8), xg),
                          np.zeros(xg.n_dofs))


def test_group_sums_match_rows():
    # Rows of one speed come as several runs; each group's sum is the
    # weighted sum of its rows, whatever f's memory order.
    xg = XGrid(4, 1, LENGTH)
    speeds = np.array([0.5, 0.5, -1.0, 0.0, 0.5, 2.0, 2.0, -1.0])
    plan = precompute_x_matrices(xg, speeds, 0.1)
    rng = np.random.default_rng(37)
    f = rng.standard_normal((8, xg.n_dofs))
    weights = rng.random((2, 8))
    for g, want in zip(plan.groups, np.unique(speeds)):
        assert (speeds[g.rows] == want).all()
    for layout in (f, np.ascontiguousarray(f.T).T):
        sums = group_sums(layout, plan, weights)
        for g, got in zip(plan.groups, sums):
            np.testing.assert_allclose(got, weights[:, g.rows] @ f[g.rows], rtol=0, atol=1e-14)


@pytest.mark.parametrize("dt", [0.1, 2.5])
def test_advect_sums_match_update_per_group(dt):
    # One gather and one product move every group's sum as apply_update
    # moves it, one call per group, and sum the groups.  dt = 2.5 shifts
    # rows by up to about 6 cells of the 5-cell grid.
    xg = XGrid(5, 4, LENGTH)
    speeds = np.array([1.3, 1.3, -0.4, 0.0, 7.9, -3.2, -3.2, 1.3])
    plan = precompute_x_matrices(xg, speeds, dt)
    sums = np.random.default_rng(53).standard_normal((len(plan.groups), xg.n_dofs))
    want = np.zeros(xg.n_dofs)
    for g, s in zip(plan.groups, sums):
        want += apply_update(s.reshape(5, 5, 1).copy(), g.decomp).ravel()
    got = advect_sums(sums, plan)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.fixture(scope="module")
def maxwell_setup():
    basis = DGBasis(5)
    mesh = build_mesh(3, 8, 0, 6.0)
    perm = build_permutation(basis, 3)
    coords = velocity_dof_coords(mesh, basis, perm)
    weights = velocity_dof_weights(mesh, basis, perm)
    return mesh, basis, perm, coords, weights


def _gauss_1d_integral(mesh_edges, fn, n_pts=50):
    gq, gw = np.polynomial.legendre.leggauss(n_pts)
    total = 0.0
    for a, b in zip(mesh_edges[:-1], mesh_edges[1:]):
        pts = 0.5 * (a + b) + 0.5 * (b - a) * gq
        total += 0.5 * (b - a) * (gw @ fn(pts))
    return total


def test_rho_unperturbed_maxwellian(maxwell_setup):
    # 8^3 mesh, p=5, R=6: rho is x-independent and equals the truncated
    # Maxwellian mass, within quadrature + truncation error of 1e-6.
    mesh, basis, perm, coords, weights = maxwell_setup
    xg = XGrid(4, 2, LENGTH)
    g = maxwellian(coords, 3)
    f = np.ascontiguousarray(np.repeat(g[:, None], xg.n_dofs, axis=1))
    rho = density(f, coords[:, 0], weights, xg)
    assert np.abs(np.diff(rho)).max() <= 1e-13
    # high-resolution quadrature oracle on the same 1D subdivision, cubed
    edges = np.unique(np.concatenate([mesh.lo[:, 0], [mesh.radius]]))
    one_dim = _gauss_1d_integral(
        edges, lambda v: (2 * np.pi) ** -0.5 * np.exp(-0.5 * v * v)
    )
    oracle = one_dim**3
    # GLL p=5 quadrature error of the Gaussian on this mesh, measured 3.4e-8
    assert abs(rho[0] - oracle) <= 1e-7
    assert abs(rho[0] - 1.0) <= 1e-6


def test_rho_perturbed_separability(maxwell_setup):
    mesh, basis, perm, coords, weights = maxwell_setup
    xg = XGrid(4, 2, LENGTH)
    g = maxwellian(coords, 3)
    pert = 1.0 + 0.01 * np.cos(0.5 * xg.dof_coords)
    f = np.ascontiguousarray(g[:, None] * pert[None, :])
    rho = density(f, coords[:, 0], weights, xg)
    rho_bar = rho.mean()
    np.testing.assert_allclose(rho, rho_bar / pert.mean() * pert, rtol=1e-12)
    assert np.abs(rho - (1.0 + 0.01 * np.cos(0.5 * xg.dof_coords))).max() <= 1e-6


def test_rho_linear_in_f(maxwell_setup):
    mesh, basis, perm, coords, weights = maxwell_setup
    xg = XGrid(4, 2, LENGTH)
    rng = np.random.default_rng(31)
    f1 = rng.standard_normal((len(weights), xg.n_dofs))
    f2 = rng.standard_normal((len(weights), xg.n_dofs))
    lhs = density(2.0 * f1 - 0.5 * f2, coords[:, 0], weights, xg)
    rhs = (2.0 * density(f1, coords[:, 0], weights, xg)
           - 0.5 * density(f2, coords[:, 0], weights, xg))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_poisson_analytic_cosine(xgrid):
    # rho - mean = 0.01 cos(x/2): phi = 0.04 cos(x/2), E = 0.02 sin(x/2).
    solver = PoissonSolver(xgrid)
    x = xgrid.dof_coords
    rho = 1.0 + 0.01 * np.cos(0.5 * x)
    phi = solver.solve(rho)
    e_field = solver.electric_field(phi)
    fe_nodes = np.array(
        [c * xgrid.h + 0.5 * (xgrid.basis.nodes[:2] + 1.0) * xgrid.h for c in range(64)]
    ).ravel()
    assert np.abs(phi - 0.04 * np.cos(0.5 * fe_nodes)).max() <= 1e-5
    # E is the FE derivative, one approximation order below phi
    assert np.abs(e_field - 0.02 * np.sin(0.5 * x)).max() <= 5e-5
    assert abs(np.abs(e_field).max() - 0.02) <= 1e-3 * 0.02


def test_poisson_constant_rho_zero_field(xgrid):
    solver = PoissonSolver(xgrid)
    phi = solver.solve(np.full(xgrid.n_dofs, 0.73))
    e_field = solver.electric_field(phi)
    assert np.abs(phi).max() <= 1e-13
    assert np.abs(e_field).max() <= 1e-13


def test_poisson_residual_and_mean(xgrid):
    rng = np.random.default_rng(13)
    solver = PoissonSolver(xgrid)
    x = xgrid.dof_coords
    rho = 1.0 + 0.05 * np.sin(0.5 * x) + 0.02 * np.cos(1.5 * x) + 1e-3 * rng.random(x.size)
    phi = solver.solve(rho)
    # The mean of phi is the GLL quadrature of its DG trace.
    assert abs(xgrid.dof_weights @ phi[solver.conn].ravel()) <= 1e-13 * np.abs(phi).max()
    # Stiffness assembled cell by cell, independently of the solver's scatter.
    basis = xgrid.basis
    local = (2.0 / xgrid.h) * basis.diff.T @ (basis.weights[:, None] * basis.diff)
    stiffness = np.zeros((solver.n_nodes, solver.n_nodes))
    for nodes in solver.conn:
        stiffness[np.ix_(nodes, nodes)] += local
    scale = max(np.abs(solver.rhs(rho)).max(), 1e-30)
    assert np.abs(stiffness @ phi - solver.rhs(rho)).max() <= 1e-12 * max(scale, 1.0)


def test_poisson_mms_convergence_order():
    # Manufactured phi = sin(x/2) + 0.3 cos(x): L2 convergence at order p_x+1.
    gq, gw = np.polynomial.legendre.leggauss(20)
    errs = []
    for n_x in (8, 16, 32):
        xg = XGrid(n_x, 2, LENGTH)
        solver = PoissonSolver(xg)
        x = xg.dof_coords
        rho = 0.25 * np.sin(0.5 * x) + 0.3 * np.cos(x) + 1.0
        phi = solver.solve(rho)
        phi_loc = phi[solver.conn]
        lag = xg.basis.eval_all(gq)
        exact_mean = 0.0  # sin and cos integrate to zero over the period
        err2 = 0.0
        for c in range(n_x):
            pts = c * xg.h + 0.5 * (gq + 1.0) * xg.h
            fe = lag @ phi_loc[c]
            exact = np.sin(0.5 * pts) + 0.3 * np.cos(pts) - exact_mean
            err2 += (0.5 * xg.h * gw) @ (fe - exact) ** 2
        errs.append(np.sqrt(err2))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o > 2.7 for o in orders)


def test_one_shot_helpers(xgrid):
    x = xgrid.dof_coords
    rho = 1.0 + 0.01 * np.cos(0.5 * x)
    solver = PoissonSolver(xgrid)
    e_field = solver.electric_field(solver.solve(rho))
    assert np.abs(e_field - 0.02 * np.sin(0.5 * x)).max() <= 5e-5


def test_field_energy_zero(xgrid):
    assert field_energy(np.zeros(xgrid.n_dofs), xgrid) == 0.0


def test_field_energy_analytic_sine(xgrid):
    # E = 0.02 sin(x/2) on [0, 4 pi]: 0.5 * 0.02^2 * (L/2) = 4 pi e-4.
    e_field = 0.02 * np.sin(0.5 * xgrid.dof_coords)
    expect = 0.5 * 0.02**2 * (LENGTH / 2.0)
    got = field_energy(e_field, xgrid)
    assert abs(got - expect) <= 1e-4 * expect


def test_field_energy_homogeneity(xgrid):
    rng = np.random.default_rng(17)
    e_field = rng.standard_normal(xgrid.n_dofs)
    assert abs(field_energy(2.0 * e_field, xgrid) - 4.0 * field_energy(e_field, xgrid)) <= 1e-12
