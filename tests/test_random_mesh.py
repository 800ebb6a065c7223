"""Velocity sweeps on random 2:1-balanced 3V meshes.

`build_mesh` refines symmetrically around the origin, so its coarse cells
lie in 1 or 4 pencils of a direction.  Refining random cells instead gives
asymmetric meshes, swept here along every axis.  A pencil is cut only
where one of its cells is refined, into 2x2 quarters, so a coarse cell lies
in 1 pencil, in 4, or in up to 16 where cells further along its pencil are
finer still.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import velocity_dof_weights
from sldg_vlasov.pencil import extract_pencils
from sldg_vlasov.vmesh import VelocityMesh, _balance_violators, _refine, build_mesh
from sldg_vlasov import vsweep
from sldg_vlasov.vsweep import advect_velocity, build_sweep_plan

from oracle import cartesian_pencils, weighted_accumulation_sweep


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
    pset = extract_pencils(mesh, direction)
    plan = build_sweep_plan(mesh, basis, pset)
    return basis, plan.perm, pset, plan


def _slot_cells(plan, s):
    """Cell ids of a slot's cells: its rows hold its class's DOFs shaped
    (p+1, class cells, n_tl)."""
    return (plan.order[s.rows].reshape(plan.basis.n_nodes, -1, plan.n_tl)[0, s.cells, 0]
            // plan.perm.n_local)


def _group_cells(plan):
    """Each group's cells shaped (pencils, cells), read back from the plan:
    its runs hold DOFs shaped (cells, p+1, pencils, n_tl), and each slot
    puts each of its cells in k consecutive pencils at its position.  A
    position no run or slot fills reads -1."""
    o, n_tl = plan.basis.n_nodes, plan.n_tl
    out = []
    for g in plan.groups:
        cells = np.full((g.n_lines // n_tl, g.n_cells), -1, dtype=np.int64)
        for positions, rows in g.runs:
            run = plan.order[rows].reshape(-1, o, len(cells), n_tl)[:, 0, :, 0]
            cells[:, positions.start // o:positions.stop // o] = run.T // plan.perm.n_local
        for s in g.slots:
            ids = _slot_cells(plan, s)
            pencils = slice(s.lines.start // n_tl, s.lines.stop // n_tl)
            cells[pencils, s.work.start // o] = np.repeat(ids, (pencils.stop - pencils.start)
                                                          // len(ids))
        out.append(cells)
    return out


def _restrict_prolong(plan):
    """Each shared cell's restrictions times its prolongations, summed over
    all its slots, by cell id."""
    out = {}
    for g in plan.groups:
        for s in g.slots:
            for c, p, r in zip(_slot_cells(plan, s), s.prolong[:, 0], s.restrict[:, 0]):
                out[c] = out.get(c, 0.0) + (p @ r).T
    return out


def _shared_entries(plan):
    """Number of (pencil, shared position) pairs the plan's slots feed."""
    return sum((s.lines.stop - s.lines.start) // plan.n_tl for g in plan.groups for s in g.slots)


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
    # each shared cell, summed over all its slots, undo its prolongations.
    wsum = np.bincount(pset.cell_ids, weights=pset.weights, minlength=mesh.n_cells)
    assert np.abs(wsum - 1.0).max() <= 1e-14
    rp = _restrict_prolong(plan)
    assert sorted(rp) == list(np.flatnonzero(np.bincount(pset.cell_ids) > 1))
    for c, m in rp.items():
        assert np.abs(m - np.eye(plan.n_tl)).max() <= 1e-13, c

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
    # Each slot's prolongation of a cell into one of its pencils evaluates
    # the cell's tensor basis at the GLL nodes of the pencil's transverse
    # rectangle.  This mesh has cells in 4 and in 13 pencils along every
    # axis.
    mesh = random_balanced_mesh(np.random.default_rng(9))
    basis, perm, pset, plan = _plan(mesh, 2, direction)
    counts = np.bincount(pset.cell_ids)
    pencil_of = {pset.cell_ids[pset.pencil_slice(q)].tobytes(): q for q in range(pset.n_pencils)}
    lines = perm.lines[direction]
    n_tl = len(lines)
    t_dims = [t for t in range(3) if t != direction]
    checked = []
    for g, members in zip(plan.groups, _group_cells(plan)):
        for s in g.slots:
            ids = _slot_cells(plan, s)
            k = (s.lines.stop - s.lines.start) // (n_tl * len(ids))
            for i, c in enumerate(ids):
                for e in range(k):
                    q = pencil_of[members[s.lines.start // n_tl + i * k + e].tobytes()]
                    prolong = s.prolong[i, 0, :, e * n_tl:(e + 1) * n_tl].T
                    # Reference coordinates of each line's first node: the
                    # sweep axis at its first GLL node, the transverse axes
                    # inside the rectangle.
                    ref = basis.nodes[perm.forward[lines[:, 0]]]
                    for a, t in enumerate(t_dims):
                        x = pset.t_lowers[q, a] + 0.5 * (ref[:, t] + 1.0) * pset.t_widths[q, a]
                        ref[:, t] = 2.0 * (x - mesh.lo[c, t]) / mesh.width[c, t] - 1.0
                    # Tensor basis function lines[m, 0] of the cell at each line's point.
                    expect = np.ones((n_tl, n_tl))
                    for d in range(3):
                        expect *= basis.eval_all(ref[:, d])[:, perm.forward[lines[:, 0], d]]
                    assert np.abs(prolong - expect).max() <= 1e-14, (c, q)
                    checked.append((c, q))
    assert {4, 13} <= set(counts[[c for c, _ in checked]])
    # Every shared entry (a shared cell in one of its pencils) is checked once.
    assert len(checked) == len(set(checked)) == int((counts[pset.cell_ids] > 1).sum())


@settings(max_examples=30, deadline=None)
@example(seed=9, direction=0)
@given(seed=st.integers(0, 2**32 - 1), direction=st.integers(0, 2))
def test_groups_share_one_mask_and_slots_one_extent(seed, direction):
    # For merged and Cartesian pencils alike, every pencil of a group
    # shares the cells at the group's shared positions and owns the rest,
    # and the groups hold every pencil once.  Every (pencil, shared
    # position) is fed by exactly one slot; Z-ordered pencils put each
    # shared cell's pencils in a group next to each other; a slot's cells
    # are distinct, and the class of its rows has one extent along the
    # sweep axis.  The runs and the classes tile the rows.
    mesh = random_balanced_mesh(np.random.default_rng(seed))
    basis = DGBasis(1)
    o = basis.n_nodes
    for pset in (extract_pencils(mesh, direction), cartesian_pencils(mesh, direction)):
        plan = build_sweep_plan(mesh, basis, pset)
        counts = np.bincount(pset.cell_ids, minlength=mesh.n_cells)
        pencils = []
        for g, cells in zip(plan.groups, _group_cells(plan)):
            fed = np.zeros(cells.shape, dtype=np.int64)
            for s in g.slots:
                fed[s.lines.start // plan.n_tl:s.lines.stop // plan.n_tl, s.work.start // o] += 1
                ids = _slot_cells(plan, s)
                assert len(np.unique(ids)) == len(ids)
                members = plan.order[s.rows].reshape(o, -1, plan.n_tl)[0, :, 0] // plan.perm.n_local
                for extent in (mesh.lo[members, direction], mesh.width[members, direction]):
                    assert (extent == extent[0]).all()
            mask = counts[cells[0]] > 1
            assert (cells >= 0).all() and ((counts[cells] > 1) == mask).all()
            assert (fed[:, mask] == 1).all() and (fed[:, ~mask] == 0).all()
            for column in cells.T[mask]:
                assert 1 + np.count_nonzero(column[1:] != column[:-1]) == len(np.unique(column))
            pencils += [ids.tobytes() for ids in cells]
        assert sorted(pencils) == sorted(pset.cell_ids[pset.pencil_slice(q)].tobytes()
                                         for q in range(pset.n_pencils))
        ranges = [(r.start, r.stop) for g in plan.groups for _, r in g.runs]
        ranges += sorted({(s.rows.start, s.rows.stop) for g in plan.groups for s in g.slots})
        assert [a for a, _ in ranges[1:]] == [b for _, b in ranges[:-1]]
        assert ranges[0][0] == 0 and ranges[-1][1] == plan.n_dofs


@settings(max_examples=40, deadline=None)
@example(seed=9, direction=0)
@given(seed=st.integers(0, 2**32 - 1), direction=st.integers(0, 2))
def test_merged_pencils_are_distinct_and_tile(seed, direction):
    mesh = random_balanced_mesh(np.random.default_rng(seed))
    pset = extract_pencils(mesh, direction)
    members = [pset.cell_ids[pset.pencil_slice(q)] for q in range(pset.n_pencils)]
    assert len({ids.tobytes() for ids in members}) == pset.n_pencils
    # Each rectangle is the intersection of its cells' transverse boxes.
    t_dims = [t for t in range(3) if t != direction]
    lo = mesh.lo[:, t_dims]
    hi = lo + mesh.width[:, t_dims]
    for q, ids in enumerate(members):
        assert np.array_equal(pset.t_lowers[q], lo[ids].max(axis=0)), q
        assert np.array_equal(pset.t_widths[q], hi[ids].min(axis=0) - lo[ids].max(axis=0)), q
    # The rectangles lie in the transverse square, no two overlap, and their
    # areas add up to the square's: they tile it exactly once.
    a, b = pset.t_lowers, pset.t_lowers + pset.t_widths
    assert (pset.t_widths > 0).all()
    assert (a >= -mesh.radius).all() and (b <= mesh.radius).all()
    overlap = np.prod(np.clip(np.minimum(b[:, None], b[None]) - np.maximum(a[:, None], a[None]),
                              0.0, None), axis=2)
    np.fill_diagonal(overlap, 0.0)
    assert (overlap == 0.0).all()
    assert abs(pset.t_widths.prod(axis=1).sum() - (2.0 * mesh.radius) ** 2) <= 1e-12
    # Every rectangle of the Cartesian product of the transverse edges lies
    # in the one pencil made of exactly its covering cells.
    ref = cartesian_pencils(mesh, direction)
    for r in range(ref.n_pencils):
        inside = np.nonzero((a <= ref.t_lowers[r]).all(axis=1)
                            & (b >= ref.t_lowers[r] + ref.t_widths[r]).all(axis=1))[0]
        assert len(inside) == 1, r
        np.testing.assert_array_equal(members[inside[0]], ref.cell_ids[ref.pencil_slice(r)])


@settings(max_examples=30, deadline=None)
@example(seed=9, degree=2, direction=1, bc="periodic")
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 3),
       direction=st.integers(0, 2), bc=st.sampled_from(["absorbing", "periodic"]))
def test_merged_sweep_matches_cartesian_oracle(seed, degree, direction, bc):
    # Merging congruent pieces of a pencil changes only round-off: the
    # transverse transfers commute with the sweep, and each cell's
    # restrictions undo its prolongations.
    rng = np.random.default_rng(seed)
    mesh = random_balanced_mesh(rng)
    basis, perm, pset, plan = _plan(mesh, degree, direction)
    ref = build_sweep_plan(mesh, basis, cartesian_pencils(mesh, direction))
    assert _shared_entries(plan) <= _shared_entries(ref)
    speeds = np.concatenate([rng.uniform(-2.0, 2.0, 2), rng.uniform(-60.0, 60.0, 2)])
    f = rng.random((plan.n_dofs, speeds.size))  # cell-local row order
    swept = []
    for p in (plan, ref):
        out = np.empty_like(f)
        out[p.order] = advect_velocity(f[p.order], speeds, 0.1, p, bc=bc)
        swept.append(out)
    assert np.abs(swept[0] - swept[1]).max() <= 1e-13 * np.abs(f).max()


@settings(max_examples=12, deadline=None)
@example(seed=9, degree=2, direction=0)
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 3), direction=st.integers(0, 2))
def test_random_mesh_sweep_matches_weighted_accumulation_oracle(seed, degree, direction):
    # The batched sweep against the per-pencil reference of tests/oracle.py,
    # which shares none of the plan's transfers, slots or batching.
    rng = np.random.default_rng(seed)
    mesh = random_balanced_mesh(rng)
    basis, perm, pset, plan = _plan(mesh, degree, direction)
    speeds = np.concatenate([rng.uniform(-2.0, 2.0, 1), rng.uniform(-60.0, 60.0, 1)])
    f = rng.random((plan.n_dofs, speeds.size))  # cell-local row order
    for bc in ("absorbing", "periodic"):
        ref = weighted_accumulation_sweep(f, mesh, basis, pset, speeds, 0.1, bc)
        out = np.empty_like(f)
        out[plan.order] = advect_velocity(f[plan.order], speeds, 0.1, plan, bc=bc)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(f).max(), bc


def test_order_that_defeats_z_order_splits_slots_not_the_sweep(monkeypatch):
    # Pencils and shared cells in random order, as on a mesh whose boxes are
    # not aligned: a cell's pencils in a group are no longer consecutive, so
    # it gets several slots at one position, and slots shrink, down to
    # single cells.  Only the first slot of a cell in restriction order may
    # overwrite its rows; the sweep stays the same.
    mesh = random_balanced_mesh(np.random.default_rng(9))
    basis, perm, pset, plan = _plan(mesh, 2, 0)
    rng = np.random.default_rng(3)
    monkeypatch.setattr(vsweep, "_z_order", lambda lo, radius, finest: rng.permutation(len(lo)))
    scrambled = build_sweep_plan(mesh, basis, pset)
    monkeypatch.undo()
    slots = [s for g in scrambled.groups for s in g.slots]
    assert len(slots) > sum(len(g.slots) for g in plan.groups)
    assert _shared_entries(scrambled) == _shared_entries(plan)
    repeats = 0
    for g in scrambled.groups:
        for position in {s.work.start for s in g.slots}:
            ids = np.concatenate([_slot_cells(scrambled, s) for s in g.slots
                                  if s.work.start == position])
            repeats += len(ids) - len(np.unique(ids))
    assert repeats > 0
    speeds = np.array([0.9, -41.0])
    f = rng.random((plan.n_dofs, speeds.size))  # cell-local row order
    for bc in ("absorbing", "periodic"):
        swept = []
        for p in (plan, scrambled):
            out = np.empty_like(f)
            out[p.order] = advect_velocity(f[p.order], speeds, 0.1, p, bc=bc)
            swept.append(out)
        assert np.abs(swept[0] - swept[1]).max() <= 1e-13 * np.abs(f).max(), bc
