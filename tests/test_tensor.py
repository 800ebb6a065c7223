import numpy as np
import pytest

from sldg_vlasov.basis import DGBasis
from sldg_vlasov.tensor import build_permutation


def test_p1_3d_corners():
    perm = build_permutation(DGBasis(1), 3)
    assert perm.forward.shape == (8, 3)
    seen = {tuple(t) for t in perm.forward}
    assert seen == {(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)}


def test_1d_identity():
    perm = build_permutation(DGBasis(4), 1)
    np.testing.assert_array_equal(perm.forward[:, 0], np.arange(5))
    np.testing.assert_array_equal(perm.lines[0], np.arange(5)[None, :])


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_forward_bijection(p):
    perm = build_permutation(DGBasis(p), 3)
    o = p + 1
    flat = perm.forward @ np.array([1, o, o * o])
    assert sorted(flat.tolist()) == list(range(o**3))


@pytest.mark.parametrize("p", [1, 3, 8])
def test_lines_partition_dofs(p):
    perm = build_permutation(DGBasis(p), 3)
    o = p + 1
    for d in range(3):
        rows = perm.lines[d]
        assert rows.shape == ((o * o), o)
        assert sorted(rows.ravel().tolist()) == list(range(o**3))


def test_line_sweep_progression():
    # Values labeled by their own (i, j, k) encoding show the sweep index
    # advancing along the line while the transverse indices stay fixed.
    p = 3
    perm = build_permutation(DGBasis(p), 3)
    o = p + 1
    vals = np.arange(o**3)
    for d in range(3):
        for t1 in range(o):
            for t2 in range(o):
                line = vals[perm.lines[d][t1 + o * t2]]
                trips = perm.forward[line]
                assert (np.diff(trips[:, d]) == 1).all()
                t_dims = [t for t in range(3) if t != d]
                assert (trips[:, t_dims[0]] == t1).all()
                assert (trips[:, t_dims[1]] == t2).all()


def test_dim_validation():
    with pytest.raises(ValueError):
        build_permutation(DGBasis(2), 2)
