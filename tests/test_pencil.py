from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from sldg_vlasov.pencil import PencilError, extract_pencils
from sldg_vlasov.vmesh import VelocityMesh, build_mesh
from sldg_vlasov.vsweep import classify_conforming


def test_uniform_mesh_pencils():
    mesh = build_mesh(3, 4, 0, 6.0)
    for d in range(3):
        pset = extract_pencils(mesh, d)
        assert pset.n_pencils == 16
        assert (np.diff(pset.offsets) == 4).all()
        assert (pset.weights == 1.0).all()


def test_1d_single_pencil():
    mesh = build_mesh(1, 16, 0, 6.0)
    pset = extract_pencils(mesh, 0)
    assert pset.n_pencils == 1
    assert len(pset.cell_ids) == 16
    assert (np.diff(pset.lowers) > 0).all()


def test_amr_pencil_structure():
    mesh = build_mesh(3, 4, 1, 6.0)
    pset = extract_pencils(mesh, 0)
    lengths = np.diff(pset.offsets)
    # 4x4 columns of base cells.  The central 2x2 cross the refined block
    # [-3, 3]^3, whose transverse edges split each into 2x2 pencils of 6
    # cells.  The other 12 are whole pencils of 4 coarse cells: 4 corner
    # columns, and 8 that border the block and contain one of its edges at
    # +-1.5, which does not cut them: no cell of theirs is refined.
    assert pset.n_pencils == 28
    assert sorted(set(lengths.tolist())) == [4, 6]
    assert (lengths == 6).sum() == 16
    coarse = lengths == 4
    assert coarse.sum() == 12
    assert (pset.levels[np.repeat(coarse, lengths)] == 0).all()
    assert (pset.weights[np.repeat(coarse, lengths)] == 1.0).all()
    np.testing.assert_array_equal(pset.t_widths[coarse], 3.0)
    lo = pset.t_lowers[coarse]
    holds_edge = ((lo < -1.5) & (lo + 3.0 > -1.5)) | ((lo < 1.5) & (lo + 3.0 > 1.5))
    assert (holds_edge.sum(axis=1) == 1).sum() == 8
    assert (holds_edge.sum(axis=1) == 0).sum() == 4


def test_amr_coarse_cells_weighted_quarter():
    mesh = build_mesh(3, 4, 1, 6.0)
    pset = extract_pencils(mesh, 0)
    counts = np.bincount(pset.cell_ids, minlength=mesh.n_cells)
    # Coarse cells whose transverse box spans 2x2 fine intervals show up in
    # four pencils with weight 1/4 each.
    quad = counts == 4
    assert quad.any()
    assert (mesh.levels[quad] == 0).all()
    np.testing.assert_allclose(pset.weights[quad[pset.cell_ids]], 0.25)


@pytest.mark.parametrize(
    "n_base,levels", [(4, 0), (4, 1), (4, 2), (3, 1), (3, 2), (5, 2), (8, 0)]
)
@pytest.mark.parametrize("direction", [0, 1, 2])
def test_pencil_invariants(n_base, levels, direction):
    mesh = build_mesh(3, n_base, levels, 6.0)
    pset = extract_pencils(mesh, direction)
    radius = mesh.radius
    # Gap-free spans of [-R, R], exact weight sums, full coverage.
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        lo = pset.lowers[sl]
        w = pset.widths[sl]
        assert abs(lo[0] + radius) <= 1e-12
        assert abs(lo[-1] + w[-1] - radius) <= 1e-12
        np.testing.assert_allclose(lo[1:], lo[:-1] + w[:-1], atol=1e-12)
    # Each weight is the share of its cell's transverse area that the
    # pencil's rectangle covers; the rectangles tile the transverse square.
    t_dims = [t for t in range(3) if t != direction]
    np.testing.assert_allclose(pset.t_widths.prod(axis=1).sum(), (2 * radius) ** 2)
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        cells = pset.cell_ids[sl]
        lo = mesh.lo[cells][:, t_dims]
        hi = lo + mesh.width[cells][:, t_dims]
        assert (lo <= pset.t_lowers[q] + 1e-12).all()
        assert (hi >= pset.t_lowers[q] + pset.t_widths[q] - 1e-12).all()
        share = np.prod(pset.t_widths[q] / (hi - lo), axis=1)
        np.testing.assert_allclose(pset.weights[sl], share, rtol=1e-14)
    wsum = np.zeros(mesh.n_cells)
    np.add.at(wsum, pset.cell_ids, pset.weights)
    np.testing.assert_allclose(wsum, 1.0, atol=1e-15)
    counts = np.bincount(pset.cell_ids, minlength=mesh.n_cells)
    assert (counts >= 1).all()
    assert counts.sum() == len(pset.cell_ids)


def reach(pset):
    """The sweep's same-level reach (before, after) of every pencil entry."""
    pairs = [classify_conforming(pset.levels[pset.pencil_slice(q)])
             for q in range(pset.n_pencils)]
    return tuple(np.concatenate(side) for side in zip(*pairs))


def test_classify_uniform_all_conforming():
    # Every 8-cell pencil reaches its other 7 cells on both sides.
    mesh = build_mesh(3, 8, 0, 6.0)
    before, after = reach(extract_pencils(mesh, 0))
    assert (before == 7).all() and (after == 7).all()


def test_classify_amr_interface_nonconforming():
    # A cell next to a level change inside its pencil reaches no cell on
    # that side, and every other cell reaches at least its neighbor.
    mesh = build_mesh(3, 4, 1, 6.0)
    pset = extract_pencils(mesh, 0)
    before, after = reach(pset)
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        lev = pset.levels[sl]
        n = len(lev)
        change = lev[1:] != lev[:-1]
        assert ((after[sl][:-1] == 0) == change).all()
        assert ((before[sl][1:] == 0) == change).all()
        wrap_change = lev[0] != lev[-1]
        assert (before[sl][0] == 0) == (wrap_change or n == 1)
        assert (after[sl][-1] == 0) == (wrap_change or n == 1)


def test_classify_single_cell_pencil():
    # A one-cell pencil reaches no cell, so it takes the slow path at every
    # shift: a periodic shift reads its cell as both sources, which index
    # arithmetic does not add up.
    before, after = classify_conforming(np.zeros(1, dtype=np.int64))
    assert before.tolist() == [0] and after.tolist() == [0]


def test_classify_periodic_wraps():
    # The count wraps at the pencil ends: the end cells of a uniform pencil
    # reach every other cell too.
    mesh = build_mesh(3, 4, 0, 6.0)
    before, after = reach(extract_pencils(mesh, 0))
    assert (before == 3).all() and (after == 3).all()


def in_range_reach(lev):
    """Same-level reach counted by walking, without wrapping at the ends."""
    n = len(lev)
    before = [next((j for j in range(1, k + 1) if lev[k - j] != lev[k]), k + 1) - 1
              for k in range(n)]
    after = [next((j for j in range(1, n - k) if lev[k + j] != lev[k]), n - k) - 1
             for k in range(n)]
    return np.array(before), np.array(after)


def assert_reach_wraps(lev):
    """The wrapped reach of a pencil is the in-range reach of its middle copy
    when three copies stand end to end, capped at n-1."""
    n = len(lev)
    for got, ref in zip(classify_conforming(lev), in_range_reach(np.tile(lev, 3))):
        assert np.array_equal(got, np.minimum(ref[n:2 * n], n - 1)), lev


@pytest.mark.parametrize("n_base,levels", [(4, 1), (4, 2), (8, 1), (8, 2), (3, 1), (5, 2), (6, 3)])
def test_classify_wrapped_equals_in_range_on_built_meshes(n_base, levels):
    mesh = build_mesh(3, n_base, levels, 6.0)
    for d in range(3):
        pset = extract_pencils(mesh, d)
        for q in range(pset.n_pencils):
            assert_reach_wraps(pset.levels[pset.pencil_slice(q)])


@pytest.mark.parametrize("lev", [[0, 1, 1, 0, 1], [2, 2, 1, 0, 0, 1, 2], [1, 1], [0, 1],
                                 [3, 0, 0, 0, 3, 3, 1]])
def test_classify_wrapped_equals_in_range_on_unbalanced_pencils(lev):
    # Level sequences no built mesh makes: asymmetric, or not 2:1 balanced.
    assert_reach_wraps(np.array(lev))


def test_pencil_set_is_frozen():
    # A sweep plan keys its pencil groups on these arrays, so a pencil set
    # takes no new values and no new fields once extracted.
    pset = extract_pencils(build_mesh(3, 4, 1, 6.0), 0)
    with pytest.raises(FrozenInstanceError):
        pset.levels = np.zeros_like(pset.levels)
    with pytest.raises(FrozenInstanceError):
        pset.conforming = np.ones(len(pset.levels), dtype=bool)


def test_invalid_direction():
    mesh = build_mesh(1, 4, 0, 6.0)
    with pytest.raises(PencilError):
        extract_pencils(mesh, 1)


def test_gap_detected_and_named():
    good = build_mesh(3, 4, 0, 6.0)
    keep = np.ones(good.n_cells, dtype=bool)
    keep[10] = False  # punch a hole in the tiling
    holey = VelocityMesh(3, 6.0, 4, good.levels[keep], good.lo[keep],
                         good.width[keep])
    with pytest.raises(PencilError, match="pencil"):
        extract_pencils(holey, 0)


def test_transverse_hole_detected():
    # Removing a whole line of cells leaves no pencil over its transverse
    # box, so the rectangles fall short of the transverse domain.
    good = build_mesh(3, 4, 0, 6.0)
    keep = ~((good.lo[:, 1] == -6.0) & (good.lo[:, 2] == -6.0))
    holey = VelocityMesh(3, 6.0, 4, good.levels[keep], good.lo[keep], good.width[keep])
    with pytest.raises(PencilError, match="transverse area"):
        extract_pencils(holey, 0)


def test_non_nested_boxes_rejected():
    # Two v_x layers, the lower split at v_y = 0 and the upper at v_z = 0:
    # along v_x no cell box holds another, so each pencil holds one cell
    # that does not span the domain.  Along v_y and v_z the boxes nest.
    lo = np.array([[-6.0, -6.0, -6.0], [-6.0, 0.0, -6.0], [0.0, -6.0, -6.0], [0.0, -6.0, 0.0]])
    width = np.array([[6.0, 6.0, 12.0]] * 2 + [[6.0, 12.0, 6.0]] * 2)
    mesh = VelocityMesh(3, 6.0, 2, np.zeros(4, dtype=int), lo, width)
    with pytest.raises(PencilError, match="pencil 0 in direction 0 does not span"):
        extract_pencils(mesh, 0)
    for d in (1, 2):
        assert extract_pencils(mesh, d).n_pencils == 3
