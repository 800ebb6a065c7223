import numpy as np
import pytest

from sldg_vlasov.basis import MAX_DEGREE, DGBasis
from sldg_vlasov.sldg1d import (ABSORBING, PERIODIC, Shift, apply_update, cell_windows,
                                shift_matrices)
from sldg_vlasov.vsweep import sweep_pencil

from oracle import (apply_update_cells, apply_update_fresh, apply_update_two_products,
                    projection_oracle)


_B1 = DGBasis(1)


def _pair(basis, frac):
    """The overlap matrices of fractional shift frac in [0, 1)."""
    return shift_matrices(basis, frac, 1.0, 1.0)


def test_decompose_positive():
    d = shift_matrices(_B1, 2.3, 1.0, 1.0)
    assert d.n_shift == 2
    assert abs(d.frac - 0.3) < 1e-15


def test_decompose_negative():
    d = shift_matrices(_B1, -0.25, 1.0, 1.0)
    assert d.n_shift == -1
    assert abs(d.frac - 0.75) < 1e-15


def test_decompose_zero():
    d = shift_matrices(_B1, 0.0, 1.0, 1.0)
    e = shift_matrices(_B1, 0.0, 2.0, 0.5)
    assert d.n_shift == e.n_shift == 0 and d.frac == e.frac == 0.0
    assert np.array_equal(d.same, e.same) and np.array_equal(d.neighbor, e.neighbor)


def test_decompose_reconstructs_ratio():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(-50, 50)
        dt = rng.uniform(1e-3, 2.0)
        h = rng.uniform(1e-3, 3.0)
        d = shift_matrices(_B1, a, dt, h)
        ratio = a * dt / h
        assert 0.0 <= d.frac < 1.0
        assert abs(d.n_shift + d.frac - ratio) <= 2 * np.spacing(max(1.0, abs(ratio)))


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        shift_matrices(_B1, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        shift_matrices(_B1, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="finite"):
        shift_matrices(_B1, np.array([0.5, np.nan]), 1.0, 1.0)
    # A nan width or step used to pass its check and be blamed on the speed.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="width"):
            shift_matrices(_B1, 1.0, 0.1, bad)
        with pytest.raises(ValueError, match="dt"):
            shift_matrices(_B1, 1.0, bad, 0.1)
    # A non-numeric step or width used to raise a bare TypeError, and a bool
    # passed as 1.0.
    for bad in ("0.1", None, 0.1 + 0j, True):
        with pytest.raises(ValueError, match="dt"):
            shift_matrices(_B1, 1.0, bad, 1.0)
        with pytest.raises(ValueError, match="width"):
            shift_matrices(_B1, 1.0, 0.1, bad)
    # From 2**53 cells on a double has no fractional shift and the int64 cast
    # would wrap (1e300 gave n_shift = -2**63).
    for speed in (1e300, -2.0**53, np.array([0.5, 2.0**53])):
        with pytest.raises(ValueError, match="shift"):
            shift_matrices(_B1, speed, 1.0, 1.0)
    d = shift_matrices(_B1, -(2.0**53 - 1), 1.0, 1.0)
    assert (d.n_shift, d.frac) == (-(2**53 - 1), 0.0)


def test_overlap_zero_shift_is_identity():
    basis = DGBasis(3)
    pair = _pair(basis, 0.0)
    assert np.array_equal(pair.same, np.eye(4))
    assert np.array_equal(pair.neighbor, np.zeros((4, 4)))


def test_batched_shift_and_overlap_match_scalar():
    # Arrays of speeds (as the velocity sweep passes per column block) give
    # the scalar decomposition exactly, including the fold just below 1, and
    # the scalar overlap pairs to round-off; a zero shift stays exact.
    # Indexing the batch indexes every field.
    basis = DGBasis(3)
    speeds = np.array([2.3, -0.25, 0.0, np.nextafter(1.0, 0.0), -7.9, 1e-300])
    d = shift_matrices(basis, speeds, 1.0, 1.0)
    assert d.same.shape == d.neighbor.shape == (speeds.size, 4, 4)
    for k, speed in enumerate(speeds):
        ref = shift_matrices(basis, float(speed), 1.0, 1.0)
        assert (d.n_shift[k], d.frac[k]) == (ref.n_shift, ref.frac)
        np.testing.assert_allclose(d.same[k], ref.same, rtol=0, atol=1e-15)
        np.testing.assert_allclose(d.neighbor[k], ref.neighbor, rtol=0, atol=1e-15)
        one = d[k]
        assert isinstance(one, Shift) and (one.n_shift, one.frac) == (d.n_shift[k], d.frac[k])
        assert np.array_equal(one.same, d.same[k]) and np.array_equal(one.neighbor, d.neighbor[k])
    assert (d.n_shift[3], d.frac[3]) == (1, 0.0)
    assert np.array_equal(d.same[2], np.eye(4))


def test_overlap_rejects_out_of_range():
    # Shifts outside [0, 1) cell widths never reach the overlap matrices:
    # they are split into whole cells and a fraction in [0, 1), whose
    # matrices they share.
    basis = DGBasis(2)
    for shift in (-0.1, 1.0, 1.5, -3.0):
        d = shift_matrices(basis, shift, 1.0, 1.0)
        assert 0.0 <= d.frac < 1.0 and d.n_shift == np.floor(shift)
        ref = _pair(basis, d.frac)
        assert np.array_equal(d.same, ref.same) and np.array_equal(d.neighbor, ref.neighbor)


@pytest.mark.parametrize("p", range(1, MAX_DEGREE + 1))
def test_partition_of_unity(p):
    # sum_i w_i (A_ij + B_ij) = w_j guarantees exact mass conservation.
    rng = np.random.default_rng(23)
    basis = DGBasis(p)
    worst = 0.0
    for frac in rng.random(1000):
        pair = _pair(basis, frac)
        viol = np.abs(basis.weights @ (pair.same + pair.neighbor) - basis.weights).max()
        worst = max(worst, viol)
    assert worst < 1e-12


def test_overlap_matches_oracle_alpha03_p3():
    # Entrywise check by feeding unit vectors through the projection oracle.
    basis = DGBasis(3)
    pair = _pair(basis, 0.3)
    n = 5
    for j in range(4):
        vals = np.zeros((n, 4))
        vals[2, j] = 1.0
        expect = projection_oracle(vals, 0.3, 1.0, basis, PERIODIC)
        a_col = expect[2]      # same-cell block column j
        b_col = expect[3]      # neighbor block column j
        np.testing.assert_allclose(pair.same[:, j], a_col, atol=1e-12)
        np.testing.assert_allclose(pair.neighbor[:, j], b_col, atol=1e-12)


def _advect(values, displacement, width, basis):
    return apply_update_cells(values, shift_matrices(basis, displacement, 1.0, width))


def test_apply_update_vs_oracle_random():
    # Periodic draws take the uniform update and the velocity sweep's slow
    # path; absorbing ones take the velocity sweep, which is the only
    # absorbing path, on a uniform pencil.  On one- and two-cell pencils a
    # periodic foot meets a cell and its image.
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(1, 9))
        basis = DGBasis(p)
        vals = rng.standard_normal((n, p + 1))
        disp = rng.uniform(-2.5 * n, 2.5 * n)
        bc = PERIODIC if rng.random() < 0.7 else ABSORBING
        expect = projection_oracle(vals, disp, 1.0, basis, bc)
        if bc == PERIODIC:
            got = _advect(vals, disp, 1.0, basis)
            slow = sweep_pencil(vals, np.ones(n), disp, 1.0, bc, basis, force_slow=True)
            assert np.abs(slow - expect).max() <= 1e-12
        else:
            got = sweep_pencil(vals, np.ones(n), disp, 1.0, bc, basis)
        assert np.abs(got - expect).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_apply_update_matches_two_products_on_strided_view(p, n):
    # The x-advection hands apply_update a strided view of f (a run of
    # rows of the x-major state), here with a leading batch axis too.
    # Columns outside the view keep their bits.  One prebuilt scratch,
    # reused across shifts as advect_x reuses it across runs, gives the
    # bits of a fresh one.
    rng = np.random.default_rng(1000 * p + n)
    pair = _pair(DGBasis(p), 0.37)
    windows = cell_windows(np.empty((2, n + 1, p + 1, 12)))
    for n_shift in (-2 * n - 3, -n, -1, 0, 1, n, 3 * n + 2):
        d = Shift(n_shift, pair.frac, pair.same, pair.neighbor)
        a = rng.standard_normal((2, n * (p + 1), 40))
        before = a.copy()
        view = a[:, :, 5:17].reshape(2, n, p + 1, 12)
        assert not view.flags.c_contiguous and np.shares_memory(view, a)
        want = apply_update_two_products(view.copy(), d)
        assert apply_update_fresh(view, d) is view
        scale = np.abs(before[:, :, 5:17]).max()
        assert np.abs(view - want).max() <= 1e-14 * scale
        outside = np.ones(40, dtype=bool)
        outside[5:17] = False
        assert np.array_equal(a[:, :, outside], before[:, :, outside])
        again = before[:, :, 5:17].reshape(2, n, p + 1, 12)
        op = np.concatenate([d.neighbor, d.same], axis=-1)
        assert np.array_equal(apply_update(again, d, windows, op), view)


def test_cell_windows_stack_adjacent_cells():
    ext = np.arange(2 * 4 * 3 * 5.0).reshape(2, 4, 3, 5)
    win = cell_windows(ext)
    assert win.shape == (2, 3, 6, 5) and np.shares_memory(win, ext)
    for j in range(3):
        np.testing.assert_array_equal(win[:, j], ext[:, j : j + 2].reshape(2, 6, 5))
    with pytest.raises(ValueError, match="C-contiguous"):
        cell_windows(ext[..., ::2])


def test_mass_conserved_periodic():
    rng = np.random.default_rng(9)
    basis = DGBasis(4)
    h = 0.37
    vals = rng.standard_normal((7, 5))
    mass0 = (0.5 * h * basis.weights * vals).sum()
    out = _advect(vals, 1.234, h, basis)
    mass1 = (0.5 * h * basis.weights * out).sum()
    assert abs(mass1 - mass0) <= 1e-13 * abs(mass0)


def test_full_wrap_is_identity():
    rng = np.random.default_rng(13)
    basis = DGBasis(2)
    vals = rng.standard_normal((6, 3))
    d = shift_matrices(basis, 6.0, 1.0, 1.0)
    assert d.n_shift == 6 and d.frac == 0.0
    out = apply_update_cells(vals, d)
    np.testing.assert_allclose(out, vals, atol=0)


@pytest.mark.parametrize("p", range(1, MAX_DEGREE + 1))
def test_polynomial_exactness(p):
    # A global polynomial is translated exactly; destination cells whose
    # sources straddle the periodic seam read a stitched pair of period
    # images instead, so they are checked against the projection oracle.
    rng = np.random.default_rng(100 + p)
    basis = DGBasis(p)
    n, h = 8, 0.5
    coeff = rng.standard_normal(p + 1)
    poly = np.polynomial.Polynomial(coeff)
    coords = np.arange(n)[:, None] * h + 0.5 * (basis.nodes[None, :] + 1.0) * h
    vals = poly(coords)
    scale = max(1.0, np.abs(vals).max())
    for disp in rng.uniform(-3 * n * h, 3 * n * h, size=10):
        out = _advect(vals, disp, h, basis)
        d = shift_matrices(_B1, disp, 1.0, h)
        for i in range(n):
            src_hi = i - d.n_shift
            wrap_hi, wrap_lo = (src_hi // n), ((src_hi - 1) // n)
            if wrap_hi == wrap_lo:
                expect = poly(coords[i] - disp - wrap_hi * n * h)
                assert np.abs(out[i] - expect).max() <= 1e-12 * scale
        oracle = projection_oracle(vals, disp, h, basis, PERIODIC)
        assert np.abs(out - oracle).max() <= 1e-12 * scale


def test_two_cell_locality():
    rng = np.random.default_rng(17)
    basis = DGBasis(3)
    n = 9
    vals = rng.standard_normal((n, 4))
    d = shift_matrices(basis, 2.6, 1.0, 1.0)
    full = apply_update_cells(vals, d)
    i = 5
    masked = np.zeros_like(vals)
    for src in (i - d.n_shift, i - d.n_shift - 1):
        masked[src % n] = vals[src % n]
    local = apply_update_cells(masked, d)
    np.testing.assert_allclose(local[i], full[i], atol=0)


def test_oracle_zero_shift_identity():
    rng = np.random.default_rng(19)
    basis = DGBasis(3)
    vals = rng.standard_normal((5, 4))
    out = projection_oracle(vals, 0.0, 1.0, basis, PERIODIC)
    assert np.abs(out - vals).max() <= 1e-13


def test_oracle_conserves_mass():
    rng = np.random.default_rng(21)
    basis = DGBasis(2)
    vals = rng.standard_normal((6, 3))
    out = projection_oracle(vals, 0.77, 1.0, basis, PERIODIC)
    m0 = (basis.weights * vals).sum()
    m1 = (basis.weights * out).sum()
    assert abs(m1 - m0) <= 1e-13 * max(1.0, abs(m0))


def test_absorbing_reads_zero_outside():
    basis = DGBasis(2)
    vals = np.ones((4, 3))
    out = sweep_pencil(vals, np.ones(4), 2.0, 1.0, ABSORBING, basis)
    # First two destination cells read entirely out-of-range sources.
    np.testing.assert_allclose(out[:2], 0.0, atol=0)
    np.testing.assert_allclose(out[2:], 1.0, atol=1e-13)


def test_linearity():
    rng = np.random.default_rng(29)
    basis = DGBasis(3)
    u = rng.standard_normal((6, 4))
    w = rng.standard_normal((6, 4))
    a, b = 1.7, -0.4
    d = shift_matrices(basis, 0.83, 1.0, 1.0)
    lhs = apply_update_cells(a * u + b * w, d)
    rhs = a * apply_update_cells(u, d) + b * apply_update_cells(w, d)
    assert np.abs(lhs - rhs).max() <= 1e-12
