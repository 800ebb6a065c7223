import numpy as np
import pytest

from sldg_vlasov.basis import MAX_DEGREE, DGBasis
from sldg_vlasov.sldg1d import (
    ABSORBING,
    PERIODIC,
    decompose_shift,
    overlap_pair,
)
from sldg_vlasov.vsweep import sweep_pencil

from oracle import apply_update_cells, projection_oracle


def test_decompose_positive():
    d = decompose_shift(2.3, 1.0, 1.0)
    assert d.n_shift == 2
    assert abs(d.frac - 0.3) < 1e-15


def test_decompose_negative():
    d = decompose_shift(-0.25, 1.0, 1.0)
    assert d.n_shift == -1
    assert abs(d.frac - 0.75) < 1e-15


def test_decompose_zero():
    d = decompose_shift(0.0, 1.0, 1.0)
    assert d == decompose_shift(0.0, 2.0, 0.5)
    assert d.n_shift == 0 and d.frac == 0.0


def test_decompose_reconstructs_ratio():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(-50, 50)
        dt = rng.uniform(1e-3, 2.0)
        h = rng.uniform(1e-3, 3.0)
        d = decompose_shift(a, dt, h)
        ratio = a * dt / h
        assert 0.0 <= d.frac < 1.0
        assert abs(d.n_shift + d.frac - ratio) <= 2 * np.spacing(max(1.0, abs(ratio)))


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decompose_shift(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        decompose_shift(1.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="finite"):
        decompose_shift(np.array([0.5, np.nan]), 1.0, 1.0)


def test_overlap_zero_shift_is_identity():
    basis = DGBasis(3)
    pair = overlap_pair(basis, 0.0)
    assert np.array_equal(pair.same, np.eye(4))
    assert np.array_equal(pair.neighbor, np.zeros((4, 4)))


def test_batched_shift_and_overlap_match_scalar():
    # Arrays of speeds (as the velocity sweep passes per column block) give
    # the scalar decomposition exactly, including the fold just below 1, and
    # the scalar overlap pairs to round-off; a zero shift stays exact.
    basis = DGBasis(3)
    speeds = np.array([2.3, -0.25, 0.0, np.nextafter(1.0, 0.0), -7.9, 1e-300])
    d = decompose_shift(speeds, 1.0, 1.0)
    pairs = overlap_pair(basis, d.frac)
    assert pairs.same.shape == (speeds.size, 4, 4)
    for k, speed in enumerate(speeds):
        ref = decompose_shift(float(speed), 1.0, 1.0)
        assert (d.n_shift[k], d.frac[k]) == (ref.n_shift, ref.frac)
        pair = overlap_pair(basis, ref.frac)
        np.testing.assert_allclose(pairs.same[k], pair.same, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pairs.neighbor[k], pair.neighbor, rtol=0, atol=1e-15)
    assert (d.n_shift[3], d.frac[3]) == (1, 0.0)
    assert np.array_equal(pairs.same[2], np.eye(4))
    with pytest.raises(ValueError):
        overlap_pair(basis, np.array([0.5, 1.0]))


def test_overlap_rejects_out_of_range():
    basis = DGBasis(2)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            overlap_pair(basis, bad)


@pytest.mark.parametrize("p", range(1, MAX_DEGREE + 1))
def test_partition_of_unity(p):
    # sum_i w_i (A_ij + B_ij) = w_j guarantees exact mass conservation.
    rng = np.random.default_rng(23)
    basis = DGBasis(p)
    worst = 0.0
    for frac in rng.random(1000):
        pair = overlap_pair(basis, frac)
        viol = np.abs(basis.weights @ (pair.same + pair.neighbor) - basis.weights).max()
        worst = max(worst, viol)
    assert worst < 1e-12


def test_overlap_matches_oracle_alpha03_p3():
    # Entrywise check by feeding unit vectors through the projection oracle.
    basis = DGBasis(3)
    pair = overlap_pair(basis, 0.3)
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
    d = decompose_shift(displacement, 1.0, width)
    pair = overlap_pair(basis, d.frac)
    return apply_update_cells(values, d, pair)


def test_apply_update_vs_oracle_random():
    # Periodic draws take the uniform update; absorbing ones take the
    # velocity sweep, which is the only absorbing path, on a uniform pencil.
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(3, 9))
        basis = DGBasis(p)
        vals = rng.standard_normal((n, p + 1))
        disp = rng.uniform(-2.5 * n, 2.5 * n)
        bc = PERIODIC if rng.random() < 0.7 else ABSORBING
        if bc == PERIODIC:
            got = _advect(vals, disp, 1.0, basis)
        else:
            got = sweep_pencil(vals, np.ones(n), disp, 1.0, bc, basis)
        expect = projection_oracle(vals, disp, 1.0, basis, bc)
        assert np.abs(got - expect).max() <= 1e-12


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
    d = decompose_shift(6.0, 1.0, 1.0)
    assert d.n_shift == 6 and d.frac == 0.0
    out = apply_update_cells(vals, d, overlap_pair(basis, 0.0))
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
        d = decompose_shift(disp, 1.0, h)
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
    d = decompose_shift(2.6, 1.0, 1.0)
    pair = overlap_pair(basis, d.frac)
    full = apply_update_cells(vals, d, pair)
    i = 5
    masked = np.zeros_like(vals)
    for src in (i - d.n_shift, i - d.n_shift - 1):
        masked[src % n] = vals[src % n]
    local = apply_update_cells(masked, d, pair)
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
    d = decompose_shift(0.83, 1.0, 1.0)
    pair = overlap_pair(basis, d.frac)
    lhs = apply_update_cells(a * u + b * w, d, pair)
    rhs = a * apply_update_cells(u, d, pair) + b * apply_update_cells(w, d, pair)
    assert np.abs(lhs - rhs).max() <= 1e-12
