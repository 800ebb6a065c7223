"""Uniform-grid semi-Lagrangian DG transport along one axis.

The piecewise-polynomial solution is translated exactly along the
characteristic and L2-projected back onto the broken DG space.  On a
uniform pencil every destination cell couples to exactly two upstream
source cells through a pair of overlap matrices that depend only on the
fractional part of the shift, so the matrices are built once per shift
and applied everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DGBasis

PERIODIC = "periodic"
ABSORBING = "absorbing"

_ONE_MINUS_ULP = float(np.nextafter(1.0, 0.0))


def check_bc(bc: str) -> str:
    if bc not in (PERIODIC, ABSORBING):
        raise ValueError(f"boundary mode must be {PERIODIC!r} or {ABSORBING!r}, got {bc!r}")
    return bc


@dataclass(frozen=True)
class ShiftDecomposition:
    """Displacement measured in cell widths, split into integer + fractional parts."""

    n_shift: int
    frac: float


def decompose_shift(speed, dt: float, width: float) -> ShiftDecomposition:
    """Split speed*dt/width into floor and remainder with the remainder in [0, 1).

    A remainder within one ulp of 1.0 is folded to (n_shift + 1, 0) to avoid
    degenerate zero-width overlap intervals.  `speed` may be an array; the
    fields then have its shape.
    """
    if width <= 0.0:
        raise ValueError(f"cell width must be positive, got {width}")
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    ratio = np.asarray(speed, dtype=float) * dt / width
    if not np.isfinite(ratio).all():
        raise ValueError(f"shift speed*dt/width must be finite, got speed {speed}")
    n = np.floor(ratio)
    frac = ratio - n
    fold = frac >= _ONE_MINUS_ULP
    n_shift = (n + fold).astype(np.int64)
    frac = np.where(fold, 0.0, frac)
    if ratio.ndim == 0:
        return ShiftDecomposition(int(n_shift), float(frac))
    return ShiftDecomposition(n_shift, frac)


@dataclass(frozen=True)
class OverlapPair:
    """Same-cell and neighbor-cell projection blocks for one fractional shift.

    `same` acts on source cell i - n_shift, `neighbor` on cell i - n_shift - 1.
    Both already include the inverse mass matrix, so the update is simply
    out_i = same @ u_{i-n} + neighbor @ u_{i-n-1}.
    """

    same: np.ndarray
    neighbor: np.ndarray
    frac: float


def _interval_block(basis: DGBasis, lo, hi, src_offset) -> np.ndarray:
    """Integral of l_j(xi) * l_j'(xi + src_offset) over [lo, hi], indexed [..., j, j'].

    The bounds and offset broadcast against each other; each combination
    yields one (p+1, p+1) block.
    """
    lo, hi, src_offset = (np.asarray(a, dtype=float)[..., None] for a in (lo, hi, src_offset))
    half = 0.5 * (hi - lo)
    pts = lo + half * (basis.gauss_nodes + 1.0)
    wts = half * basis.gauss_weights
    dest = basis.eval_all(pts)
    src = basis.eval_all(pts + src_offset)
    return np.swapaxes(dest, -1, -2) @ (wts[..., None] * src)


def overlap_pair(basis: DGBasis, frac) -> OverlapPair:
    """Build the two overlap matrices for fractional shift frac in [0, 1).

    The matrices realize the exact L2 projection of the translated
    piecewise-degree-p function onto the destination cell.  In destination
    reference coordinates the foot lands in the same-index source cell for
    xi in [2*frac - 1, 1] (source coordinate xi - 2*frac) and in the left
    neighbor for xi in [-1, 2*frac - 1] (source coordinate xi + 2 - 2*frac);
    both integrands have degree 2p, so the 2p+2-point Gauss rule is exact.
    `frac` may be an array of shifts; the matrices are then stacked,
    shaped frac.shape + (p+1, p+1).  A zero shift gives exactly (I, 0).
    """
    frac = np.asarray(frac, dtype=float)
    if not ((0.0 <= frac) & (frac < 1.0)).all():
        raise ValueError(f"fractional shift must lie in [0, 1), got {frac}")
    split = 2.0 * frac - 1.0
    one = np.ones_like(frac)
    # Same-cell block first, neighbor block second, in one batch.
    same, neighbor = basis.mass_inv @ _interval_block(
        basis, np.array([split, -one]), np.array([one, split]),
        np.array([-2.0 * frac, 2.0 * (1.0 - frac)]))
    zero = (frac == 0.0)[..., None, None]
    same = np.where(zero, np.eye(basis.n_nodes), same)
    neighbor = np.where(zero, 0.0, neighbor)
    return OverlapPair(same, neighbor, float(frac) if frac.ndim == 0 else frac)


def shifted_source(values: np.ndarray, k: int, bc: str) -> np.ndarray:
    """Source array with out[..., i, :] = values[..., i - k, :].

    Periodic wraps indices modulo the pencil length; absorbing fills
    out-of-range reads with zeros.
    """
    n = values.shape[-2]
    if bc == PERIODIC:
        return np.roll(values, k, axis=-2)
    if k == 0:
        return values
    out = np.zeros_like(values)
    if k > 0:
        if k < n:
            out[..., k:, :] = values[..., : n - k, :]
    else:
        if -k < n:
            out[..., : n + k, :] = values[..., -k :, :]
    return out


def apply_update(values, decomp: ShiftDecomposition, pair: OverlapPair, bc: str = PERIODIC):
    """One SLDG advection step on a uniform pencil.

    `values` has shape (..., n_cells, p+1); destination cell i draws from
    source cells i - n_shift and i - n_shift - 1 only.
    """
    check_bc(bc)
    values = np.asarray(values, dtype=float)
    if values.ndim < 2:
        raise ValueError("expected pencil values of shape (..., n_cells, p+1)")
    src_same = shifted_source(values, decomp.n_shift, bc)
    src_nb = shifted_source(values, decomp.n_shift + 1, bc)
    return src_same @ pair.same.T + src_nb @ pair.neighbor.T


def projection_oracle(values, displacement: float, width: float, basis: DGBasis,
                      bc: str = PERIODIC):
    """Brute-force reference for apply_update, used only by tests.

    Translates the piecewise polynomial by `displacement` and projects it
    onto each destination cell by direct 50-point Gauss quadrature over
    every overlap subinterval.  Cell i spans [i*width, (i+1)*width).
    """
    check_bc(bc)
    values = np.asarray(values, dtype=float)
    n, o = values.shape
    gq, gw = np.polynomial.legendre.leggauss(50)
    length = n * width
    if bc == PERIODIC:
        n_images = int(abs(displacement) / length) + 2
        images = range(-n_images, n_images + 1)
    else:
        images = (0,)

    out = np.zeros_like(values)
    for i in range(n):
        foot_lo = i * width - displacement
        rhs = np.zeros(o)
        for c in range(n):
            for k in images:
                src_lo = c * width + k * length
                vl = max(foot_lo, src_lo)
                vr = min(foot_lo + width, src_lo + width)
                if vr <= vl:
                    continue
                pts = 0.5 * (vl + vr) + 0.5 * (vr - vl) * gq
                wts = 0.5 * (vr - vl) * gw
                src_vals = basis.eval_all(2.0 * (pts - src_lo) / width - 1.0) @ values[c]
                dest = basis.eval_all(2.0 * (pts + displacement - i * width) / width - 1.0)
                rhs += (2.0 / width) * ((wts * src_vals) @ dest)
        out[i] = basis.mass_inv @ rhs
    return out
