import numpy as np
import pytest

from sldg_vlasov.vmesh import MeshError, build_mesh, ip_count

# (n_base, levels, expected cells) from the benchmark configurations.
CELL_COUNTS = [
    (3, 0, 27),
    (3, 1, 34),
    (4, 0, 64),
    (4, 1, 120),
    (4, 2, 176),
    (5, 0, 125),
    (6, 0, 216),
    (8, 0, 512),
]


@pytest.mark.parametrize("n_base,levels,expected", CELL_COUNTS)
def test_cell_counts(n_base, levels, expected):
    mesh = build_mesh(3, n_base, levels, 6.0)
    assert mesh.n_cells == expected


def test_even_base_count_formula():
    # Each refinement round splits the 2^3 origin cells: +56 cells per level.
    for n_base in (4, 6):
        for levels in (1, 2):
            mesh = build_mesh(3, n_base, levels, 6.0)
            assert mesh.n_cells == n_base**3 + 56 * levels


def test_ip_counts():
    assert ip_count(build_mesh(3, 4, 1, 6.0), 3) == 7680
    assert ip_count(build_mesh(3, 3, 1, 6.0), 3) == 2176
    assert ip_count(build_mesh(3, 4, 0, 6.0), 5) == 13824


def _check_geometry(mesh):
    radius, dim = mesh.radius, mesh.dim
    vol = mesh.width.prod(axis=1).sum()
    assert abs(vol - (2 * radius) ** dim) <= 1e-12 * (2 * radius) ** dim

    # Width-level consistency.
    h0 = mesh.base_width
    expect_w = np.repeat(h0 / 2.0 ** mesh.levels[:, None], dim, axis=1)
    np.testing.assert_allclose(mesh.width, expect_w, rtol=1e-14)
    lo, hi = mesh.lo, mesh.lo + mesh.width
    assert (lo >= -radius - 1e-12).all() and (hi <= radius + 1e-12).all()

    # Pairwise non-overlap (open boxes).
    n = mesh.n_cells
    inter = np.ones((n, n), dtype=bool)
    for d in range(dim):
        inter &= (
            np.minimum(hi[:, None, d], hi[None, :, d])
            - np.maximum(lo[:, None, d], lo[None, :, d])
        ) > 1e-12
    np.fill_diagonal(inter, False)
    assert not inter.any()

    # 2:1 balance across faces.
    tol = 1e-9 * h0
    for d in range(dim):
        touch = (np.abs(hi[:, None, d] - lo[None, :, d]) < tol) | (
            np.abs(hi[None, :, d] - lo[:, None, d]) < tol
        )
        overlap = np.ones((n, n), dtype=bool)
        for t in range(dim):
            if t != d:
                overlap &= (
                    np.minimum(hi[:, None, t], hi[None, :, t])
                    - np.maximum(lo[:, None, t], lo[None, :, t])
                ) > tol
        adj = touch & overlap
        jumps = np.abs(mesh.levels[:, None] - mesh.levels[None, :])
        assert (jumps[adj] <= 1).all()


@pytest.mark.parametrize("n_base,levels,_", CELL_COUNTS)
def test_geometry_invariants(n_base, levels, _):
    _check_geometry(build_mesh(3, n_base, levels, 6.0))


def test_geometry_invariants_1d():
    mesh = build_mesh(1, 8, 1, 6.0)
    _check_geometry(mesh)
    assert mesh.n_cells == 8 + 2  # two middle cells split into four


def test_geometry_invariants_odd_base_two_levels():
    # The second-level cell count for odd bases is intentionally unpinned
    # (the origin-nearest marker refines the middle children, then 2:1
    # balancing pulls in the face neighbors), but the geometry must hold.
    mesh = build_mesh(3, 3, 2, 6.0)
    _check_geometry(mesh)
    assert mesh.n_cells > 34
    assert mesh.levels.max() == 2


def test_invalid_parameters():
    with pytest.raises(MeshError):
        build_mesh(2, 4, 0, 6.0)
    with pytest.raises(MeshError):
        build_mesh(3, 1, 0, 6.0)
    with pytest.raises(MeshError):
        build_mesh(3, 4, 4, 6.0)
    with pytest.raises(MeshError):
        build_mesh(3, 4, 0, -1.0)
    # A bool passed for a count or the radius used to build a mesh: True
    # as the level gave 120 cells, as the radius a domain of radius 1.
    for args, name in (((3, 4, True, 6.0), "max_level"), ((3, 4, 1.0, 6.0), "refinement level"),
                       ((True, 4, 0, 6.0), "dim"), ((3.0, 4, 0, 6.0), "dimension"),
                       ((3, True, 0, 6.0), "n_base"), ((1, 4, 1, True), "radius")):
        with pytest.raises(MeshError, match=name):
            build_mesh(*args)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), float("-inf")])
def test_rejects_nonfinite_radius(radius):
    # NaN fails every comparison, so a bare `radius <= 0` check let it
    # through into a mesh of NaN corners.
    with pytest.raises(MeshError, match=f"radius must be positive and finite, got {radius}"):
        build_mesh(1, 4, 1, radius)

