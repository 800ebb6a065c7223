"""Uniform-grid semi-Lagrangian DG transport along one axis.

The piecewise-polynomial solution is translated exactly along the
characteristic and L2-projected back onto the broken DG space.  On a
uniform periodic pencil (the x-advection) every destination cell couples
to exactly two upstream source cells through a pair of overlap matrices
that depend only on the fractional part of the shift, so the matrices are
built once per shift and applied everywhere.  The same overlap-integral
kernel gives the generalized blocks of the AMR velocity sweep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import DGBasis

PERIODIC = "periodic"
ABSORBING = "absorbing"

_ONE_MINUS_ULP = float(np.nextafter(1.0, 0.0))
# From 2**53 cells on, a double holds no fractional shift (and int64 wraps at 2**63).
_MAX_SHIFT = 2.0**53


def check_bc(bc: str) -> str:
    if bc not in (PERIODIC, ABSORBING):
        raise ValueError(f"boundary mode must be {PERIODIC!r} or {ABSORBING!r}, got {bc!r}")
    return bc


def index_runs(indices) -> tuple:
    """Slices of consecutive entries covering the sorted index array `indices`."""
    cut = np.flatnonzero(np.diff(indices) != 1) + 1
    return tuple(slice(int(r[0]), int(r[-1]) + 1) for r in np.split(indices, cut) if r.size)


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
    if not 0.0 < width < np.inf:
        raise ValueError(f"cell width must be positive and finite, got {width}")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"time step dt must be positive and finite, got {dt}")
    ratio = np.asarray(speed, dtype=float) * dt / width
    if not np.isfinite(ratio).all():
        raise ValueError(f"shift speed*dt/width must be finite, got speed {speed}")
    if not (np.abs(ratio) < _MAX_SHIFT).all():
        raise ValueError(f"shift speed*dt/width must be below 2**53 cells in magnitude, "
                         f"got {np.abs(ratio).max():.3g}")
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


def overlap_blocks(basis: DGBasis, vl, vr, dest_lo, dest_w, src_lo, src_w, disp) -> np.ndarray:
    """Raw overlap matrices for a batch of (destination, source) cell pairs.

    The foot interval of a destination cell is the cell moved upstream by
    its displacement `disp`.  Entry [n, i, j] integrates destination basis
    function i (evaluated at the foot point moved back into the
    destination cell) against source basis function j over the foot
    segment [vl[n], vr[n]], scaled by 2/dest_w so the measure is the
    destination's reference coordinate.  All arguments are 1D arrays of
    one length; the (p+1)-point Gauss rule is exact for the degree-2p
    integrand.  The inverse mass matrix is not applied.
    """
    gq, gw = basis.gauss_nodes, basis.gauss_weights
    half = 0.5 * (vr - vl)
    pts = vl[:, None] + half[:, None] * (gq[None, :] + 1.0)
    wts = half[:, None] * gw[None, :]
    dref = 2.0 * (pts + disp[:, None] - dest_lo[:, None]) / dest_w[:, None] - 1.0
    sref = 2.0 * (pts - src_lo[:, None]) / src_w[:, None] - 1.0
    dest = basis.eval_all(dref)
    src = basis.eval_all(sref)
    raw = np.swapaxes(dest, 1, 2) @ (wts[:, :, None] * src)
    raw *= (2.0 / dest_w)[:, None, None]
    return raw


def overlap_pair(basis: DGBasis, frac) -> OverlapPair:
    """Build the two overlap matrices for fractional shift frac in [0, 1).

    The matrices realize the exact L2 projection of the translated
    piecewise-degree-p function onto the destination cell.  They are the
    overlap blocks of reference cells: destination and same-index source
    [-1, 1], left neighbor [-3, -1], displacement 2*frac.  `frac` may be an
    array of shifts; the matrices are then stacked, shaped
    frac.shape + (p+1, p+1).  A zero shift gives exactly (I, 0).
    """
    frac = np.asarray(frac, dtype=float)
    if not ((0.0 <= frac) & (frac < 1.0)).all():
        raise ValueError(f"fractional shift must lie in [0, 1), got {frac}")
    d = 2.0 * frac.ravel()
    one = np.ones_like(d)
    lo = np.full(2 * d.size, -1.0)
    w = np.full(2 * d.size, 2.0)
    # Same-cell records first, neighbor records second, in one batch.
    raw = overlap_blocks(basis, np.concatenate([-one, -one - d]), np.concatenate([one - d, -one]),
                         lo, w, np.concatenate([-one, -3.0 * one]), w, np.tile(d, 2))
    o = basis.n_nodes
    same, neighbor = (basis.mass_inv @ raw).reshape((2,) + frac.shape + (o, o))
    zero = (frac == 0.0)[..., None, None]
    same = np.where(zero, np.eye(o), same)
    neighbor = np.where(zero, 0.0, neighbor)
    return OverlapPair(same, neighbor)


def apply_update(values, decomp: ShiftDecomposition, pair: OverlapPair):
    """One periodic SLDG advection step on a uniform pencil, in place.

    `values` is a float array shaped (..., n_cells, p+1, n_lines), updated
    alike for each trailing line: destination cell i draws from source
    cells i - n_shift and i - n_shift - 1 only, wrapped modulo the pencil
    length.  Returns `values`.
    """
    if values.ndim < 3:
        raise ValueError("expected pencil values of shape (..., n_cells, p+1, n_lines)")
    n, o = values.shape[-3:-1]
    # One copy with cell 0 appended after the last cell: the 2(p+1) rows
    # from cell j on hold source cells j and j + 1 (mod n), the (neighbor,
    # same) pair of destination cell j + n_shift + 1.
    ext = np.concatenate([values, values[..., :1, :, :]], axis=-3)
    rows = ext.reshape(ext.shape[:-3] + ((n + 1) * o, ext.shape[-1]))
    windows = np.swapaxes(sliding_window_view(rows, 2 * o, axis=-2)[..., ::o, :, :], -1, -2)
    op = np.concatenate([pair.neighbor, pair.same], axis=-1)
    j0 = (-decomp.n_shift - 1) % n
    np.matmul(op, windows[..., j0:, :, :], out=values[..., : n - j0, :, :])
    np.matmul(op, windows[..., :j0, :, :], out=values[..., n - j0 :, :, :])
    return values
