"""Tensor-product DOF indexing for hexahedral (and interval) cells.

Cell-local DOFs are ordered lexicographically, b = i + (p+1)*j + (p+1)^2*k
with i fastest, so DOF b is the nodal basis function of GLL grid point
(i, j, k).  Precomputed line index lists give, per sweep direction, the
p+1 DOFs of every 1D line through the cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DGBasis


@dataclass(frozen=True)
class TensorPermutation:
    """Forward DOF -> (i, j, k) map plus per-direction line index lists.

    lines[d] has shape ((p+1)^(dim-1), p+1): row t lists the cell-local DOF
    indices along direction d for transverse pair t = t1 + (p+1)*t2, ordered
    by increasing sweep index.  Transverse dimensions are taken in
    increasing axis order.
    """

    degree: int
    dim: int
    forward: np.ndarray
    lines: tuple

    @property
    def n_local(self) -> int:
        return (self.degree + 1) ** self.dim


def build_permutation(basis: DGBasis, dim: int) -> TensorPermutation:
    """Construct the lexicographic DOF factorization of the basis."""
    if dim not in (1, 3):
        raise ValueError(f"velocity dimension must be 1 or 3, got {dim}")
    o = basis.n_nodes
    ids = np.arange(o**dim)
    if dim == 1:
        return TensorPermutation(basis.degree, dim, ids[:, None], (ids[None, :].copy(),))

    forward = np.stack([ids % o, (ids // o) % o, ids // (o * o)], axis=1)
    # grid[k, j, i] = i + o*j + o^2*k; each transpose puts the pencil's
    # second transverse index first and the sweep index last.
    grid = ids.reshape(o, o, o)
    lines = tuple(
        np.ascontiguousarray(grid.transpose(axes)).reshape(o * o, o)
        for axes in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    )
    return TensorPermutation(basis.degree, dim, forward, lines)
