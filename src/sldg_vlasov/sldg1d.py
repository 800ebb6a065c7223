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

import numbers
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
class Shift:
    """Shifts in cell widths and their overlap matrices, one entry per speed.

    A shift n_shift + frac (frac in [0, 1)) moves cell i's foot onto source
    cells i - n_shift and i - n_shift - 1; `same` and `neighbor` project them
    onto cell i, inverse mass matrix included:
    out_i = same @ u_{i-n} + neighbor @ u_{i-n-1}.  Indexing a Shift indexes
    every field.
    """

    n_shift: np.ndarray
    frac: np.ndarray
    same: np.ndarray
    neighbor: np.ndarray

    def __getitem__(self, key) -> "Shift":
        return Shift(self.n_shift[key], self.frac[key], self.same[key], self.neighbor[key])


def shift_matrices(basis: DGBasis, speed, dt: float, width: float) -> Shift:
    """Shifts speed*dt/width and their matrices, shaped like `speed`, in one batch.

    A remainder within one ulp of 1.0 folds to (n_shift + 1, 0), which
    avoids zero-width overlap intervals.  The matrices are the exact L2
    projection of the translate: overlap blocks of reference cells, the
    destination and same-index source [-1, 1], the neighbor [-3, -1],
    displacement 2*frac.  A zero remainder gives exactly (I, 0).
    """
    for name, value in (("cell width", width), ("time step dt", dt)):
        if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                or not 0.0 < value < np.inf):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
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
    return Shift(n_shift, frac, same, neighbor)


def cell_windows(ext):
    """The 2-cell windows of `ext`, a C-contiguous (..., n + 1, p+1, n_lines) array.

    Returns a writable view shaped (..., n, 2(p+1), n_lines) whose window j
    stacks cells j and j + 1: in C order the two cells are adjacent, so the
    window steps one cell and keeps every stride of `ext`.
    """
    if not ext.flags.c_contiguous:
        raise ValueError("cell windows need a C-contiguous scratch")
    shape = ext.shape[:-3] + (ext.shape[-3] - 1, 2 * ext.shape[-2], ext.shape[-1])
    return np.ndarray(shape, ext.dtype, ext, strides=ext.strides)


def apply_update(values, shift: Shift, windows, pair):
    """One periodic SLDG advection step on a uniform pencil, in place.

    `values` is a float array shaped (..., n_cells, p+1, n_lines), updated
    alike for each trailing line: destination cell i draws from source
    cells i - n_shift and i - n_shift - 1 only, wrapped modulo the pencil
    length.  Two slice copies fill a rolled scratch of n_cells + 1 cells,
    ext[i] = values[(i + first) % n_cells] with first = (-n_shift - 1) %
    n_cells, so window i of the scratch holds destination cell i's
    (neighbor, same) sources; one product of pair = [neighbor | same] over
    all windows then writes straight into `values`.  `windows` is the
    `cell_windows` view of such a scratch.  Returns `values`.
    """
    if values.ndim < 3:
        raise ValueError("expected pencil values of shape (..., n_cells, p+1, n_lines)")
    n, o = values.shape[-3:-1]
    first = (-shift.n_shift - 1) % n
    # Scratch cells 0 .. n - first - 1 are the first halves of the leading
    # windows, cells n - first .. n the second halves of the trailing ones.
    windows[..., : n - first, :o, :] = values[..., first:, :, :]
    windows[..., n - first - 1 :, o:, :] = values[..., : first + 1, :, :]
    np.matmul(pair, windows, out=values)
    return values
