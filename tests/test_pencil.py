import numpy as np
import pytest

from sldg_vlasov.pencil import PencilError, classify_conforming, extract_pencils
from sldg_vlasov.vmesh import build_mesh


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
    # 6x6 transverse intervals: 16 pencils cross the refined block (6 cells),
    # the remaining 20 see only coarse cells (4 cells).
    assert pset.n_pencils == 36
    assert sorted(set(lengths.tolist())) == [4, 6]
    assert (lengths == 6).sum() == 16
    assert (lengths == 4).sum() == 20


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


@pytest.mark.parametrize("n_base,levels", [(4, 0), (4, 1), (4, 2), (3, 1), (8, 0)])
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


def test_classify_uniform_all_conforming():
    mesh = build_mesh(3, 8, 0, 6.0)
    for bc in ("absorbing", "periodic"):
        pset = classify_conforming(extract_pencils(mesh, 0))
        assert pset.conforming.all()


def test_classify_amr_interface_nonconforming():
    mesh = build_mesh(3, 4, 1, 6.0)
    pset = classify_conforming(extract_pencils(mesh, 0))
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        lev = pset.levels[sl]
        conf = pset.conforming[sl]
        if (lev == lev[0]).all():
            assert conf.all()
        else:
            # Every fine cell within two positions of a level change flags slow.
            n = len(lev)
            for k in range(n):
                near_change = any(
                    0 <= k + off < n and lev[k + off] != lev[k]
                    for off in (-2, -1, 1, 2)
                )
                assert conf[k] == (not near_change)


def test_classify_single_cell_pencil():
    # A one-cell mesh direction gives a one-cell pencil: always slow path.
    mesh = build_mesh(1, 2, 0, 6.0)
    pset = extract_pencils(mesh, 0)
    # fabricate a single-cell pencil by slicing the arrays
    from sldg_vlasov.pencil import PencilSet

    single = PencilSet(
        direction=0,
        n_pencils=1,
        offsets=np.array([0, 1]),
        cell_ids=pset.cell_ids[:1],
        lowers=pset.lowers[:1],
        widths=pset.widths[:1],
        levels=pset.levels[:1],
        weights=np.array([1.0]),
    )
    single = classify_conforming(single)
    assert not single.conforming.any()


def test_classify_periodic_wraps():
    # Periodic lookup wraps: uniform pencil stays fully conforming.
    mesh = build_mesh(3, 4, 0, 6.0)
    pset = classify_conforming(extract_pencils(mesh, 0))
    assert pset.conforming.all()


def in_range_flags(pset):
    """Conforming flags from neighbors inside the pencil only, without wrapping.

    A cell is conforming when every neighbor within two positions that lies
    inside its pencil shares its level; single-cell pencils are not.
    """
    out = np.zeros(len(pset.levels), dtype=bool)
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        lev = pset.levels[sl]
        n = len(lev)
        out[sl] = [
            n > 1 and all(lev[k + off] == lev[k] for off in (-2, -1, 1, 2) if 0 <= k + off < n)
            for k in range(n)
        ]
    return out


@pytest.mark.parametrize("n_base,levels", [(4, 1), (4, 2), (8, 1), (8, 2), (3, 1), (5, 2), (6, 3)])
def test_classify_wrapped_equals_in_range_on_built_meshes(n_base, levels):
    # build_mesh refines symmetrically about the origin, so every pencil's
    # level sequence is a palindrome and wrapping changes no flag.
    mesh = build_mesh(3, n_base, levels, 6.0)
    for d in range(3):
        pset = classify_conforming(extract_pencils(mesh, d))
        assert np.array_equal(pset.conforming, in_range_flags(pset)), d


def test_invalid_direction():
    mesh = build_mesh(1, 4, 0, 6.0)
    with pytest.raises(PencilError):
        extract_pencils(mesh, 1)


def test_gap_detected_and_named():
    from sldg_vlasov.vmesh import VelocityMesh

    good = build_mesh(3, 4, 0, 6.0)
    keep = np.ones(good.n_cells, dtype=bool)
    keep[10] = False  # punch a hole in the tiling
    holey = VelocityMesh(3, 6.0, 4, good.levels[keep], good.lo[keep],
                         good.width[keep])
    with pytest.raises(PencilError, match="pencil"):
        extract_pencils(holey, 0)

