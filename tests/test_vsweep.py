from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sldg_vlasov import vsweep
from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import velocity_dof_coords, velocity_dof_weights
from sldg_vlasov.pencil import PencilSet, extract_pencils
from sldg_vlasov.sldg1d import overlap_blocks, shift_matrices
from sldg_vlasov.vmesh import build_mesh
from sldg_vlasov.vsweep import (
    SweepError,
    advect_velocity,
    build_sweep_plan,
    classify_conforming,
    fast_cells,
    precompute_level_matrices,
    sweep_pencil,
)

from oracle import apply_update_cells, weighted_accumulation_sweep


@dataclass(frozen=True)
class GeneralizedOverlap:
    """Projection block from one source cell onto one destination cell.

    `matrix` already includes the inverse mass matrix; [lo, hi] is the
    overlap of the foot interval with the source cell, in foot coordinates.
    """

    matrix: np.ndarray
    lo: float
    hi: float


def generalized_overlap(basis, dest_lo, dest_width, src_lo, src_width, displacement):
    """Cross-size projection block for one destination/source cell pair.

    The foot interval is the destination cell shifted upstream by
    `displacement`; an empty intersection with the source cell yields the
    zero matrix.  The sweep computes the same blocks in batches through
    `overlap_blocks`.
    """
    o = basis.n_nodes
    foot_lo = dest_lo - displacement
    vl = max(foot_lo, src_lo)
    vr = min(foot_lo + dest_width, src_lo + src_width)
    if vr <= vl:
        return GeneralizedOverlap(np.zeros((o, o)), vl, vl)
    raw = overlap_blocks(
        basis,
        np.array([vl]), np.array([vr]),
        np.array([dest_lo]), np.array([dest_width]),
        np.array([src_lo]), np.array([src_width]),
        np.array([displacement]),
    )[0]
    return GeneralizedOverlap(basis.mass_inv @ raw, vl, vr)


@pytest.fixture(scope="module")
def sweep_plans():
    # Direction-0 plans on the 4^3+AMR1, 4^3+AMR2 and 8^3+AMR1 meshes, p=3,
    # with the mesh, the velocity DOF coordinates and the quadrature
    # weights in the plan's row order; one plan per mesh serves both
    # boundary modes.  Every mesh has pencils that change level, with cells
    # whose same-level reach takes the fast path at small shifts.
    basis = DGBasis(3)
    out = {}
    for n_base, levels in ((4, 1), (4, 2), (8, 1)):
        mesh = build_mesh(3, n_base, levels, 6.0)
        plan = build_sweep_plan(mesh, basis)
        coords = velocity_dof_coords(mesh, basis, plan.perm)[plan.order]
        weights = velocity_dof_weights(mesh, basis, plan.perm)[plan.order]
        out[n_base, levels] = (plan, mesh, coords, weights)
    return out


@pytest.fixture(scope="module")
def amr_setup(sweep_plans):
    # The 4^3+AMR1 plan with its basis and DOF permutation.
    plan, mesh, coords, weights = sweep_plans[4, 1]
    return plan.basis, mesh, plan.perm, plan, coords, weights


def test_level_matrices_zero_speed():
    basis = DGBasis(2)
    lm = precompute_level_matrices(basis, 0.0, 0.1, 1.0, 3)
    for lev in range(3):
        assert lm.n_shift[lev] == 0 and lm.frac[lev] == 0.0
        assert np.array_equal(lm.same[lev], np.eye(3))
        assert np.array_equal(lm.neighbor[lev], 0.0 * np.eye(3))


def test_level_matrices_halving():
    # Displacement of one fine cell: integer shift on the fine level,
    # half-cell fractional shift on the coarse level.
    basis = DGBasis(3)
    h0 = 1.0
    lm = precompute_level_matrices(basis, 0.5, 1.0, h0, 2)
    assert lm.n_shift[0] == 0 and abs(lm.frac[0] - 0.5) < 1e-15
    assert lm.n_shift[1] == 1 and lm.frac[1] == 0.0


@pytest.mark.parametrize("p", range(1, 6))
def test_level_matrices_partition_of_unity(p):
    basis = DGBasis(p)
    lm = precompute_level_matrices(basis, 0.731, 0.1, 1.3, 3)
    for same, neighbor in zip(lm.same, lm.neighbor):
        viol = np.abs(basis.weights @ (same + neighbor) - basis.weights).max()
        assert viol < 1e-12


def test_generalized_overlap_self_identity():
    basis = DGBasis(3)
    block = generalized_overlap(basis, 0.0, 1.0, 0.0, 1.0, 0.0)
    np.testing.assert_allclose(block.matrix, np.eye(4), atol=1e-13)


@pytest.mark.parametrize("frac", [0.17, 0.5, 0.93])
def test_generalized_overlap_reduces_to_fast_path(frac):
    # Equal-width cells with a sub-cell shift reproduce the uniform-grid
    # same/neighbor matrices entrywise.
    basis = DGBasis(4)
    h = 0.7
    pair = shift_matrices(basis, frac, 1.0, 1.0)
    disp = frac * h
    same = generalized_overlap(basis, 0.0, h, 0.0, h, disp)
    nb = generalized_overlap(basis, 0.0, h, -h, h, disp)
    np.testing.assert_allclose(same.matrix, pair.same, atol=1e-12)
    np.testing.assert_allclose(nb.matrix, pair.neighbor, atol=1e-12)


def test_generalized_overlap_empty_is_zero():
    basis = DGBasis(2)
    block = generalized_overlap(basis, 0.0, 1.0, 5.0, 1.0, 0.0)
    assert np.array_equal(block.matrix, np.zeros((3, 3)))
    assert block.hi == block.lo


def test_generalized_overlap_column_weights():
    # Mass functional of each source block equals the direct quadrature of
    # the source basis over the overlap window (coarse source, fine dest).
    basis = DGBasis(3)
    h = 1.0
    dest = (0.0, h)
    src = (-2 * h, 2 * h)
    disp = 0.4 * h
    block = generalized_overlap(basis, dest[0], dest[1], src[0], src[1], disp)
    gq, gw = np.polynomial.legendre.leggauss(50)
    pts = 0.5 * (block.lo + block.hi) + 0.5 * (block.hi - block.lo) * gq
    wts = 0.5 * (block.hi - block.lo) * gw
    src_vals = basis.eval_all(2.0 * (pts - src[0]) / src[1] - 1.0)
    expect = wts @ src_vals
    got = 0.5 * dest[1] * (basis.weights @ block.matrix)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def _amr_pencil():
    """Lower edges and widths of a pencil with no conforming cell, on [-6, 6]."""
    lowers = np.array([-6.0, -3.0, -1.5, 0.0, 1.5, 3.0])
    widths = np.array([3.0, 1.5, 1.5, 1.5, 1.5, 3.0])
    return lowers, widths


def test_sweep_uniform_operator_matches_apply_update():
    # A conforming uniform pencil's operator is the uniform-grid update:
    # destination cell s reads only cells s - n and s - n - 1 (wrapped), and
    # applying it matches apply_update.  Sweeping the unit vectors gives the
    # operator's columns.
    basis = DGBasis(3)
    rng = np.random.default_rng(41)
    n = 5
    widths = np.full(n, 2.4)
    vals = rng.standard_normal((7, n, 4))
    unit = np.eye(n * 4).reshape(n * 4, n, 4)
    for speed in (1.3, -7.9):  # n_shift 0 and -2
        lm = precompute_level_matrices(basis, speed, 0.4, 2.4, 1)
        ns = lm.n_shift[0]
        op = sweep_pencil(unit, widths, speed, 0.4, "periodic", basis).reshape(n * 4, n * 4).T
        blocks = op.reshape(n, 4, n, 4).transpose(0, 2, 1, 3)
        nonzero = {(s, c) for s in range(n) for c in range(n) if blocks[s, c].any()}
        assert nonzero == {(s, (s - ns - k) % n) for s in range(n) for k in (0, 1)}
        out = sweep_pencil(vals, widths, speed, 0.4, "periodic", basis)
        ref = apply_update_cells(vals, lm[0])
        assert np.abs(out - ref).max() <= 1e-14


def test_sweep_amr_mass_conserved_absorbing():
    # Compactly supported data far from the boundary: no outflow possible.
    basis = DGBasis(3)
    lowers, widths = _amr_pencil()
    coords = lowers[:, None] + 0.5 * (basis.nodes[None, :] + 1.0) * widths[:, None]
    vals = np.exp(-2.0 * coords**2)
    vals[[0, -1]] = 0.0  # exactly zero in the boundary cells
    out = sweep_pencil(vals, widths, 0.8, 0.1, "absorbing", basis)
    quad = 0.5 * widths[:, None] * basis.weights[None, :]
    mass0 = (quad * vals).sum()
    mass1 = (quad * out).sum()
    assert abs(mass1 - mass0) <= 1e-13 * abs(mass0)


def test_sweep_amr_mass_conserved_periodic():
    basis = DGBasis(2)
    _, widths = _amr_pencil()
    rng = np.random.default_rng(43)
    vals = rng.standard_normal((6, 3))
    out = sweep_pencil(vals, widths, -2.1, 0.3, "periodic", basis)
    quad = 0.5 * widths[:, None] * basis.weights[None, :]
    assert abs((quad * out).sum() - (quad * vals).sum()) <= 1e-13


def test_sweep_foot_meets_cell_and_its_image():
    # Displacement -0.8 on [-0.75, 0.75]: the wide cell's foot [0.05, 1.05]
    # reads cell 0, cell 1 and cell 0's periodic image, so two blocks of one
    # destination land on one source cell and must be summed.
    basis = DGBasis(2)
    widths = np.array([1.0, 0.5])
    quad = 0.5 * widths[:, None] * basis.weights[None, :]
    rng = np.random.default_rng(59)
    vals = rng.standard_normal((3, 2, 3))
    out = sweep_pencil(vals, widths, -8.0, 0.1, "periodic", basis)
    mass0, mass1 = (quad * vals).sum(axis=(1, 2)), (quad * out).sum(axis=(1, 2))
    assert np.abs(mass1 - mass0).max() <= 1e-14 * np.abs(vals).max()
    const = sweep_pencil(np.full((2, 3), 0.7), widths, -8.0, 0.1, "periodic", basis)
    assert np.abs(const - 0.7).max() <= 1e-14


def test_sweep_zero_input_zero_output():
    basis = DGBasis(3)
    _, widths = _amr_pencil()
    vals = np.zeros((6, 4))
    out = sweep_pencil(vals, widths, 1.0, 0.25, "absorbing", basis)
    assert np.array_equal(out, vals)


def test_sweep_hybrid_matches_forced_slow_on_pencil():
    # Six fine cells between coarse ones, at integer shift 0 on both levels:
    # every cell with a same-level cell right before it takes the fast path,
    # the first coarse cell too, whose reach wraps to the last.
    basis = DGBasis(3)
    widths = np.array([3.0] + [1.5] * 6 + [3.0])
    before, _ = classify_conforming(np.array([0, 1, 1, 1, 1, 1, 1, 0]))
    assert before.tolist() == [1, 0, 1, 2, 3, 4, 5, 0]
    lm = precompute_level_matrices(basis, 0.9, 0.2, 3.0, 2)
    assert lm.n_shift.tolist() == [0, 0]
    rng = np.random.default_rng(47)
    vals = rng.standard_normal((3, 8, 4))
    hybrid = sweep_pencil(vals, widths, 0.9, 0.2, "absorbing", basis)
    slow = sweep_pencil(vals, widths, 0.9, 0.2, "absorbing", basis, force_slow=True)
    assert np.abs(hybrid - slow).max() <= 1e-12


@pytest.mark.parametrize("widths", [[1.0, 1.0, 3.0], [1.0, 0.0, 1.0], [1.0, np.nan, 1.0]])
def test_sweep_pencil_rejects_bad_widths(widths):
    # Widths that are not the widest one halved a whole number of times
    # have no level; zero and NaN widths tile nothing.
    basis = DGBasis(1)
    with pytest.raises(SweepError, match="width"):
        sweep_pencil(np.ones((3, 2)), np.array(widths), 0.5, 0.1, "periodic", basis)


@pytest.mark.parametrize("shape", [(6, 4), (3, 6, 4)])
def test_sweep_pencil_leaves_input_unchanged(shape):
    # A single line's transpose is already contiguous; the sweep must still
    # work on a copy.
    basis = DGBasis(3)
    _, widths = _amr_pencil()
    vals = np.random.default_rng(97).standard_normal(shape)
    before = vals.copy()
    out = sweep_pencil(vals, widths, 0.9, 0.2, "periodic", basis)
    assert out.shape == shape and not np.array_equal(out, before)
    assert np.array_equal(vals, before)


def test_fast_cells_follow_the_reach():
    # Two coarse cells around four fine ones: a cell is fast at n_shift 0
    # when it reaches a same-level cell before it, and at -1 when it reaches
    # one after it; the coarse cells reach each other across the wrap.
    reach = classify_conforming(np.array([0, 1, 1, 1, 1, 0]))
    assert np.flatnonzero(fast_cells(*reach, 0)).tolist() == [0, 2, 3, 4]
    assert np.flatnonzero(fast_cells(*reach, -1)).tolist() == [1, 2, 3, 5]
    single = classify_conforming(np.zeros(1, dtype=np.int64))
    shifts = np.arange(-8, 8)[:, None]
    assert not fast_cells(*single, shifts).any()
    for n in range(2, 7):
        fast = fast_cells(*classify_conforming(np.full(n, 2)), shifts)
        window = (shifts >= -(n - 1)) & (shifts <= n - 2)
        assert np.array_equal(fast, np.broadcast_to(window, fast.shape)), n


@pytest.mark.parametrize("bc", ["absorbing", "periodic"])
@pytest.mark.parametrize("n_shift", [-3, -2, 1, 2])
def test_sweep_fast_window_edges(bc, n_shift):
    # Five fine cells between two coarse ones: the middle cell reaches two
    # fine cells on each side, and its third neighbors are coarse.  Its
    # sources s-n and s-n-1 stay inside its same-level reach for n = -2 and
    # 1 (fast path) and reach a coarse cell for n = -3 and 2, where index
    # arithmetic would read the coarse cell as a fine one.
    basis = DGBasis(3)
    widths = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    before, after = classify_conforming(np.array([0, 1, 1, 1, 1, 1, 0]))
    assert before.tolist() == [1, 0, 1, 2, 3, 4, 0]
    assert after.tolist() == [0, 4, 3, 2, 1, 0, 1]
    dt = 0.1
    speed = (n_shift + 0.37) / dt  # in fine cells (width 1) per step
    lm = precompute_level_matrices(basis, speed, dt, 2.0, 2)
    assert lm.n_shift[1] == n_shift
    vals = np.random.default_rng(83).standard_normal((3, 7, 4))
    args = (widths, speed, dt, bc, basis)
    hybrid = sweep_pencil(vals, *args)
    slow = sweep_pencil(vals, *args, force_slow=True)
    assert np.abs(hybrid - slow).max() <= 1e-12


@pytest.mark.parametrize("bc", ["absorbing", "periodic"])
@pytest.mark.parametrize("n_shift", [-2, -1, 0, 1])
def test_sweep_one_plan_serves_both_modes(bc, n_shift):
    # An asymmetric pencil: six fine cells, then two coarse ones.  Cell 0
    # has a coarse neighbor only across the periodic wrap, so its wrapped
    # reach is 0 before it, which keeps periodic sweeps exact; the coarse
    # cells reach each other across the pencil end, and absorbing sweeps
    # zero the sources there.
    basis = DGBasis(3)
    widths = np.array([1.0] * 6 + [2.0] * 2)
    before, after = classify_conforming(np.array([1, 1, 1, 1, 1, 1, 0, 0]))
    assert before.tolist() == [0, 1, 2, 3, 4, 5, 0, 1]
    assert after.tolist() == [5, 4, 3, 2, 1, 0, 1, 0]
    dt = 0.1
    speed = (n_shift + 0.37) / dt  # in fine cells (width 1) per step
    lm = precompute_level_matrices(basis, speed, dt, 2.0, 2)
    assert lm.n_shift[1] == n_shift
    vals = np.random.default_rng(89).standard_normal((3, 8, 4))
    args = (widths, speed, dt, bc, basis)
    hybrid = sweep_pencil(vals, *args)
    slow = sweep_pencil(vals, *args, force_slow=True)
    assert np.abs(hybrid - slow).max() <= 1e-12


@st.composite
def _balanced_depths(draw):
    """Refinement depths 0-2 of 2-8 base cells; neighbors differ by at most 1."""
    depths = [draw(st.integers(0, 2))]
    for _ in range(draw(st.integers(1, 7))):
        depths.append(min(2, max(0, depths[-1] + draw(st.integers(-1, 1)))))
    return depths


@settings(max_examples=100, deadline=None)
@example(depths=[1, 1, 1, 0], degree=1, bc="periodic", shifts=[0.5], seed=0)
@given(depths=_balanced_depths(), degree=st.sampled_from([1, 3]),
       bc=st.sampled_from(["absorbing", "periodic"]),
       shifts=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_sweep_random_balanced_pencils(depths, degree, bc, shifts, seed):
    # Random 2:1-balanced pencils, symmetric or not, classified once and
    # swept in either mode with shifts of up to six finest cells: the
    # hybrid sweep matches the slow path, and periodic sweeps keep the mass.
    basis = DGBasis(degree)
    h0 = 2.0
    widths = np.concatenate([np.full(2**d, h0 / 2**d) for d in depths])
    dt = 0.1
    vals = np.random.default_rng(seed).standard_normal((2, len(widths), basis.n_nodes))
    quad = 0.5 * widths[:, None] * basis.weights
    scale = (quad * np.abs(vals)).sum()
    for shift in shifts:  # in finest cells
        speed = shift * (h0 / 4) / dt
        args = (widths, speed, dt, bc, basis)
        hybrid = sweep_pencil(vals, *args)
        slow = sweep_pencil(vals, *args, force_slow=True)
        assert np.abs(hybrid - slow).max() <= 1e-12, shift
        if bc == "periodic":
            assert abs((quad * hybrid).sum() - (quad * vals).sum()) <= 1e-13 * scale, shift


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.integers(0, 2), min_size=1, max_size=9),
       degree=st.integers(1, 4), bc=st.sampled_from(["absorbing", "periodic"]),
       n_shift=st.integers(-5, 4), frac=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       data=st.data())
def test_sweep_random_unbalanced_pencils(levels, degree, bc, n_shift, frac, data):
    # Random levels with no 2:1 balance, on pencils of 1-9 cells: at an
    # integer shift of -5 to 4 cells of one of its levels, exact or with a
    # fraction, the hybrid sweep matches the slow path.
    basis = DGBasis(degree)
    widths = 2.0 ** -np.array(levels)
    h = data.draw(st.sampled_from(sorted(set(widths.tolist()))))
    dt = 0.25  # speeds and displacements stay exact in binary
    speed = (n_shift + frac) * h / dt
    vals = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        (2, len(widths), basis.n_nodes))
    args = (widths, speed, dt, bc, basis)
    hybrid = sweep_pencil(vals, *args)
    slow = sweep_pencil(vals, *args, force_slow=True)
    assert np.abs(hybrid - slow).max() <= 1e-12


def test_sweep_linearity():
    basis = DGBasis(2)
    _, widths = _amr_pencil()
    rng = np.random.default_rng(53)
    u = rng.standard_normal((6, 3))
    w = rng.standard_normal((6, 3))
    args = (widths, 1.7, 0.15, "periodic", basis)
    lhs = sweep_pencil(2.0 * u - 0.7 * w, *args)
    rhs = 2.0 * sweep_pencil(u, *args) - 0.7 * sweep_pencil(w, *args)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_weighted_writeback_copy_and_average(amr_setup):
    # Production write-back, through one block sweep whose operators are all
    # c*I: owned rows come back as c times themselves, bit for bit, and each
    # shared cell whose pencil values are c times its prolongations gets c
    # times its own polynomial back, because its restrictions, summed over
    # all its slots, undo its prolongations (R.P = I).
    basis, mesh, perm, plan, coords, weights = amr_setup
    n = basis.n_nodes * np.array([g.n_cells for g in plan.groups])
    shared = np.zeros(plan.n_dofs, dtype=bool)
    for g in plan.groups:
        for s in g.slots:
            shared[s.rows] = True
    assert shared.any() and not shared.all()
    block = np.random.default_rng(73).standard_normal((3, plan.n_dofs))
    for c in (1.0, 2.0):
        out = block.copy()
        vsweep._sweep_block(out, [np.broadcast_to(c * np.eye(m), (3, m, m)) for m in n], plan)
        assert np.array_equal(out[:, ~shared], c * block[:, ~shared]), c
        assert np.abs(out - c * block).max() <= 1e-13 * np.abs(c * block).max(), c


def test_weighted_writeback_rejects_uncovered(amr_setup):
    # Dropping one pencil leaves part of some cells without a pencil, so
    # their write-back weights no longer sum to one.
    basis, mesh, perm, plan, coords, weights = amr_setup
    pset = extract_pencils(mesh, 0)
    keep = slice(0, int(pset.offsets[-2]))
    holey = PencilSet(
        direction=0,
        n_pencils=pset.n_pencils - 1,
        offsets=pset.offsets[:-1],
        cell_ids=pset.cell_ids[keep],
        lowers=pset.lowers[keep],
        widths=pset.widths[keep],
        levels=pset.levels[keep],
        weights=pset.weights[keep],
        t_lowers=pset.t_lowers[:-1],
        t_widths=pset.t_widths[:-1],
    )
    with pytest.raises(SweepError, match="uncovered"):
        build_sweep_plan(mesh, basis, holey)


def test_advect_zero_field_bitwise(amr_setup):
    basis, mesh, perm, plan, coords, weights = amr_setup
    rng = np.random.default_rng(59)
    f = rng.standard_normal((plan.n_dofs, 4))
    before = f.copy()
    out = advect_velocity(f, np.zeros(4), 0.1, plan)
    assert out is f
    assert np.array_equal(f, before)
    # Zero-speed columns between moving ones keep their bits too.
    advect_velocity(f, np.array([0.5, 0.0, 0.7, 0.0]), 0.1, plan)
    assert np.array_equal(f[:, [1, 3]], before[:, [1, 3]])
    assert not np.array_equal(f[:, [0, 2]], before[:, [0, 2]])


def test_advect_rejects_integer_field(amr_setup):
    # An integer field would come back truncated by the in-place write-back.
    plan = amr_setup[3]
    f = np.ones((plan.n_dofs, 2), dtype=np.int64)
    with pytest.raises(SweepError, match="f must be a float64"):
        advect_velocity(f, np.array([0.5, -0.5]), 0.1, plan)


def test_advect_rejects_float32_field(amr_setup):
    plan = amr_setup[3]
    f = np.ones((plan.n_dofs, 2), dtype=np.float32)
    with pytest.raises(SweepError, match="f must be a float64"):
        advect_velocity(f, np.array([0.5, -0.5]), 0.1, plan)


def test_advect_rejects_2d_speeds(amr_setup):
    plan = amr_setup[3]
    f = np.ones((plan.n_dofs, 2))
    with pytest.raises(SweepError, match="speeds must be 1-D"):
        advect_velocity(f, np.array([[0.5, -0.5]]), 0.1, plan)


def test_advect_global_mass_periodic(sweep_plans):
    rng = np.random.default_rng(61)
    speeds = np.array([0.31, -0.9, 0.02])
    for levels in (1, 2):
        plan, _, coords, weights = sweep_plans[4, levels]
        f = rng.standard_normal((plan.n_dofs, 3))
        masses0 = weights @ f
        advect_velocity(f, speeds, 0.1, plan, bc="periodic")
        masses1 = weights @ f
        assert np.abs((masses1 - masses0) / masses0).max() <= 1e-12, levels


def test_advect_transverse_moments_periodic(sweep_plans):
    # A v_x sweep solves f_t + E f_vx = 0, which leaves every moment that
    # depends only on (v_y, v_z) unchanged.  The coarse/fine transfer must
    # keep them too: the L2 restriction preserves transverse moments of
    # degree <= p.
    rng = np.random.default_rng(79)
    speeds = np.array([0.31, -0.9, 1.7, -3.3])
    for levels in (1, 2):
        plan, _, coords, weights = sweep_plans[4, levels]
        kernels = np.stack([
            weights,
            weights * coords[:, 1],
            weights * (coords[:, 1] ** 2 + coords[:, 2] ** 2),
        ])
        f = rng.standard_normal((plan.n_dofs, speeds.size))
        before = kernels @ f
        scale = np.abs(kernels) @ np.abs(f)
        advect_velocity(f, speeds, 0.1, plan, bc="periodic")
        assert (np.abs(kernels @ f - before) / scale).max() <= 1e-12, levels


def test_advect_hybrid_vs_forced_slow(amr_setup):
    basis, mesh, perm, plan, coords, weights = amr_setup
    rng = np.random.default_rng(67)
    f = rng.standard_normal((plan.n_dofs, 2))
    speeds = np.array([0.55, -1.2])
    fa = f.copy()
    fb = f.copy()
    advect_velocity(fa, speeds, 0.1, plan, bc="absorbing")
    advect_velocity(fb, speeds, 0.1, plan, bc="absorbing", force_slow=True)
    assert np.abs(fa - fb).max() <= 1e-12


def test_advect_column_blocks_independent(sweep_plans, monkeypatch):
    # Columns share a sweep's batched assembly and a block's products, not
    # their arithmetic.  Zero-speed columns at block edges and inside
    # blocks shift every later block's offset into the sweep's operators;
    # sweeping in blocks of 1, 5 or 1000 columns, or one column alone,
    # matches the default blocks.  Blocks of other sizes give the transfer
    # products another number of rows (one per column), so they may differ
    # in the last bits.
    plans = [(build_sweep_plan(build_mesh(3, 4, 1, 6.0), DGBasis(2)), "4^3+AMR1 p=2"),
             (sweep_plans[4, 2][0], "4^3+AMR2 p=3")]
    rng = np.random.default_rng(71)
    speeds = rng.uniform(-1.5, 1.5, size=100)
    speeds[[0, 10, 33, 34, 64]] = 0.0
    for plan, name in plans:
        for bc in ("absorbing", "periodic"):
            f = rng.standard_normal((plan.n_dofs, speeds.size))
            tol = 1e-14 * np.abs(f).max()
            default = advect_velocity(f.copy(), speeds, 0.1, plan, bc=bc)
            for j in (1, 10, 40, 99):
                alone = advect_velocity(f[:, j:j + 1].copy(), speeds[j:j + 1], 0.1, plan, bc=bc)
                assert np.abs(alone[:, 0] - default[:, j]).max() <= tol, (name, bc, j)
            for size in (1, 5, 1000):
                monkeypatch.setattr(vsweep, "_COLUMN_BLOCK", size)
                other = advect_velocity(f.copy(), speeds, 0.1, plan, bc=bc)
                monkeypatch.undo()
                assert np.abs(other - default).max() <= tol, (name, bc, size)


def test_advect_rejects_nonfinite_speed_before_sweeping(amr_setup):
    # A bad speed in a later block must not leave the earlier blocks swept.
    plan = amr_setup[3]
    rng = np.random.default_rng(83)
    speeds = rng.uniform(-1.5, 1.5, size=70)
    f = rng.standard_normal((plan.n_dofs, speeds.size))
    before = f.copy()
    for bad in (np.nan, np.inf):
        speeds[50] = bad
        with pytest.raises(SweepError, match="finite.* in column 50$"):
            advect_velocity(f, speeds, 0.1, plan, bc="periodic")
        assert np.array_equal(f, before)


def test_advect_maxwellian_constant_field(amr_setup):
    # Constant acceleration shifts the Maxwellian; compare against analytic
    # evaluation at the DOFs.  The bound is a regression pin of the coarse
    # mesh's projection error (exactness is impossible off the DG space).
    basis, mesh, perm, plan, coords, weights = amr_setup
    g = (2 * np.pi) ** -1.5 * np.exp(-0.5 * (coords**2).sum(axis=1))
    f = np.ascontiguousarray(g[:, None])
    e_const, dt = 0.8, 0.5
    advect_velocity(f, np.array([e_const]), dt, plan, bc="absorbing")
    shifted = coords.copy()
    shifted[:, 0] -= e_const * dt
    expect = (2 * np.pi) ** -1.5 * np.exp(-0.5 * (shifted**2).sum(axis=1))
    err = np.abs(f[:, 0] - expect).max() / g.max()
    assert err <= 0.03  # measured 0.0064 on this mesh and step


def test_sweep_plan_group_layout(amr_setup):
    basis, mesh, perm, plan, coords, weights = amr_setup
    # 4^3+AMR1 direction 0: 12 coarse-only pencils and 16 mixed pencils,
    # 16 lines each.
    assert len(plan.groups) == 2
    sizes = sorted((g.n_lines, g.n_cells) for g in plan.groups)
    assert sizes == [(192, 4), (256, 6)]
    # The groups' runs and the shared cells' classes tile the rows in order,
    # and `order` is a permutation of the cell-local DOF ids.
    classes = sorted({(s.rows.start, s.rows.stop) for g in plan.groups for s in g.slots})
    ranges = [(rows.start, rows.stop) for g in plan.groups for _, rows in g.runs] + classes
    assert [a for a, _ in ranges[1:]] == [b for _, b in ranges[:-1]]
    assert ranges[0][0] == 0 and ranges[-1][1] == plan.n_dofs
    assert np.array_equal(np.sort(plan.order), np.arange(plan.n_dofs))
    # Every working row and line of a group is either owned (in exactly one
    # run) or fed by exactly one slot, which covers one position and k
    # consecutive pencils per cell.
    o, n_tl = basis.n_nodes, plan.n_tl
    for g in plan.groups:
        fed = np.zeros((g.n_cells * o, g.n_lines), dtype=np.int64)
        for positions, rows in g.runs:
            assert (positions.stop - positions.start) * g.n_lines == rows.stop - rows.start
            fed[positions] += 1
        for s in g.slots:
            n_c, _, _, k_lines = s.prolong.shape
            assert s.work.stop - s.work.start == o and s.work.start % o == 0
            assert s.lines.stop - s.lines.start == n_c * k_lines
            assert s.restrict.shape == (n_c, 1, k_lines, n_tl)
            fed[s.work, s.lines] += 1
        assert (fed == 1).all()
    # Each of the 8 shared cells lies in 4 consecutive pencils of the mixed
    # group: one slot of 4 cells at each of its two shared positions.
    slots = [(len(s.prolong), s.prolong.shape[-1] // n_tl, s.first)
             for g in plan.groups for s in g.slots]
    assert slots == [(4, 4, True)] * 2


@pytest.mark.parametrize("direction", [0, 1, 2])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_advect_matches_weighted_accumulation_oracle(levels, direction):
    # The batched sweep against a per-pencil reference that shares none of
    # the plan's transfers or batching (tests/oracle.py).  On 4^3+AMR2 and
    # +AMR3 a shared cell lies in pencils of two or three groups, so its
    # restriction sums slots of several groups.
    mesh = build_mesh(3, 4, levels, 6.0)
    basis = DGBasis(2)
    pset = extract_pencils(mesh, direction)
    plan = build_sweep_plan(mesh, basis, pset)
    rng = np.random.default_rng(89 + levels)
    f = rng.random((plan.n_dofs, 3))  # cell-local row order
    speeds = np.array([0.7, -1.3, 35.0])
    for bc in ("absorbing", "periodic"):
        ref = weighted_accumulation_sweep(f, mesh, basis, pset, speeds, 0.1, bc)
        out = np.empty_like(f)
        out[plan.order] = advect_velocity(f[plan.order], speeds, 0.1, plan, bc=bc)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(f).max(), bc


# Speeds: zero, tiny, and displacements up to 3 domain lengths (12 / dt).
_speeds = st.one_of(
    st.just(0.0),
    st.floats(-1e-12, 1e-12),
    st.floats(-360.0, 360.0, allow_subnormal=False),
)


@settings(max_examples=40, deadline=None)
@example(mesh=(8, 1), bc="periodic", speeds=[47.0, 0.0, -47.0], seed=0)
@given(mesh=st.sampled_from([(4, 1), (4, 2), (8, 1)]),
       bc=st.sampled_from(["absorbing", "periodic"]),
       speeds=st.lists(_speeds, min_size=1, max_size=20), seed=st.integers(0, 2**32 - 1))
def test_advect_batched_sweep_properties(sweep_plans, mesh, bc, speeds, seed):
    # Random column blocks (zero speeds split the moving runs) with shifts of
    # many cells: a cell takes the fast path only while its sources and the
    # cells between them and it share its level, and every larger shift,
    # which would carry its sources across a level change, goes to the slow
    # path.
    plan, _, _, weights = sweep_plans[mesh]
    speeds = np.array(speeds)
    f = np.random.default_rng(seed).random((plan.n_dofs, speeds.size))
    hybrid = advect_velocity(f.copy(), speeds, 0.1, plan, bc=bc)
    slow = advect_velocity(f.copy(), speeds, 0.1, plan, bc=bc, force_slow=True)
    assert np.abs(hybrid - slow).max() <= 1e-12
    still = speeds == 0.0
    assert np.array_equal(hybrid[:, still], f[:, still])
    if bc == "periodic":
        mass0 = weights @ f
        assert (np.abs(weights @ hybrid - mass0) / mass0).max() <= 1e-13


@settings(max_examples=30, deadline=None)
@given(mesh=st.sampled_from([(4, 1), (4, 2), (8, 1)]), degree=st.integers(0, 3),
       speeds=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_advect_polynomial_exact_on_amr(sweep_plans, mesh, degree, speeds, seed):
    # A polynomial in v_x of degree <= p lies in the DG space of every cell
    # and every pencil, so one sweep translates it exactly wherever the foot
    # interval stays inside [-R, R] (absorbing boundaries read zero outside),
    # on the fast path, on the slow path and through the coarse/fine transfer.
    plan, vmesh, coords, _ = sweep_plans[mesh]
    coefs = np.random.default_rng(seed).uniform(-1.0, 1.0, degree + 1)
    speeds = np.array(speeds)
    disp = speeds * 0.1
    r = plan.radius
    f = np.repeat(np.polyval(coefs, coords[:, :1] / r), speeds.size, axis=1)
    exact = np.polyval(coefs, (coords[:, :1] - disp) / r)
    cell = plan.order // (plan.n_dofs // vmesh.n_cells)
    lo = vmesh.lo[cell, :1]
    hi = lo + vmesh.width[cell, :1]
    inside = (lo - disp >= -r) & (hi - disp <= r)
    assert inside.any(axis=0).all()
    scale = np.abs(coefs).sum()  # bounds |P| on [-R, R]
    for force_slow in (False, True):
        out = advect_velocity(f.copy(), speeds, 0.1, plan, force_slow=force_slow)
        assert np.abs(out - exact)[inside].max() <= 1e-12 * scale, force_slow
