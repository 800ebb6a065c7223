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
    indices along direction d for transverse nodes t = t1 + (p+1)*t2 + ...,
    ordered by increasing sweep index.  Transverse dimensions are taken in
    increasing axis order; a 1V cell has one line.  Line t sits at node
    forward[lines[d][t, 0], a] of each transverse axis a.
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
    # grid[..., j, i] = i + o*j + ...: cell axis d is grid axis dim-1-d, and
    # moving it last leaves the first transverse axis varying fastest.
    grid = np.arange(o**dim).reshape((o,) * dim)
    forward = np.stack(np.unravel_index(grid.ravel(), grid.shape)[::-1], axis=1)
    lines = tuple(np.moveaxis(grid, dim - 1 - d, -1).reshape(-1, o) for d in range(dim))
    return TensorPermutation(basis.degree, dim, forward, lines)
