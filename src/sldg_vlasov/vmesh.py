"""Adaptively refined velocity meshes (intervals in 1V, axis-aligned boxes in 3V).

The mesh starts as a uniform grid over [-R, R]^d and is refined level by
level: marked cells split into 2^d children of half the width.  Each
round marks the cells nearest the origin, concentrating resolution at
the Maxwellian peak.  A 2:1 face balance is enforced after marking so that
level jumps between face neighbors never exceed one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class VelocityMesh:
    """Flat list of leaf cells with explicit geometry (no tree retained).

    Attributes:
        dim: number of velocity dimensions (1 or 3).
        radius: domain half-width R; the cells tile [-R, R]^dim.
        n_base: base cells per dimension.
        levels: (n_cells,) refinement level of each cell.
        lo: (n_cells, dim) lower corner of each cell.
        width: (n_cells, dim) cell widths; width = base_width / 2**level.
    """

    dim: int
    radius: float
    n_base: int
    levels: np.ndarray
    lo: np.ndarray
    width: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.levels)

    @property
    def base_width(self) -> float:
        return 2.0 * self.radius / self.n_base


def _origin_nearest_mask(lo: np.ndarray, width: np.ndarray, tol: float) -> np.ndarray:
    """Mark the cells whose center is nearest the origin (ties included)."""
    centers = lo + 0.5 * width
    dist = np.sqrt((centers * centers).sum(axis=1))
    return dist <= dist.min() + tol


def _refine(levels, lo, width, mask):
    """Replace each marked cell by its 2^dim half-width children."""
    dim = lo.shape[1]
    keep_levels = levels[~mask]
    keep_lo = lo[~mask]
    keep_width = width[~mask]

    parents_lo = lo[mask]
    parents_width = width[mask]
    parents_level = levels[mask]
    corners = np.stack(
        np.meshgrid(*([np.array([0.0, 0.5])] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    child_lo = (parents_lo[:, None, :] + corners[None, :, :] * parents_width[:, None, :]
                ).reshape(-1, dim)
    child_width = np.repeat(0.5 * parents_width, 2**dim, axis=0)
    child_levels = np.repeat(parents_level + 1, 2**dim)

    return (
        np.concatenate([keep_levels, child_levels]),
        np.concatenate([keep_lo, child_lo]),
        np.concatenate([keep_width, child_width]),
    )


def _balance_violators(levels, lo, width, tol):
    """Cells face-adjacent to a cell at least two levels finer."""
    n = len(levels)
    hi = lo + width
    mask = np.zeros(n, dtype=bool)
    dim = lo.shape[1]
    for d in range(dim):
        touch = (np.abs(hi[:, None, d] - lo[None, :, d]) < tol) | (
            np.abs(hi[None, :, d] - lo[:, None, d]) < tol
        )
        overlap = np.ones((n, n), dtype=bool)
        for t in range(dim):
            if t == d:
                continue
            overlap &= (np.minimum(hi[:, None, t], hi[None, :, t])
                        - np.maximum(lo[:, None, t], lo[None, :, t])) > tol
        adjacent = touch & overlap
        coarser = (levels[None, :] - levels[:, None]) >= 2
        mask |= (adjacent & coarser).any(axis=1)
    return mask


def build_mesh(dim: int, n_base: int, max_level: int, radius: float) -> VelocityMesh:
    """Build the AMR velocity mesh.

    Each refinement round marks the cells nearest the origin (the 2^dim
    cells around the origin for even n_base; the single cell containing
    the origin at the first round for odd n_base).  After each round, 2:1
    face balance is restored by refining offending coarse cells.
    """
    for name, value in (("dim", dim), ("n_base", n_base), ("max_level", max_level),
                        ("radius", radius)):
        if isinstance(value, bool):
            raise MeshError(f"{name} must be a number, not a bool, got {value!r}")
    if not isinstance(dim, (int, np.integer)) or dim not in (1, 3):
        raise MeshError(f"velocity dimension must be 1 or 3, got {dim!r}")
    if not isinstance(n_base, (int, np.integer)) or n_base < 2:
        raise MeshError(f"base cell count must be an integer >= 2, got {n_base!r}")
    if not isinstance(max_level, (int, np.integer)) or not 0 <= max_level <= 3:
        raise MeshError(f"refinement level must be an integer in [0, 3], got {max_level!r}")
    if not 0 < radius < np.inf:
        raise MeshError(f"domain radius must be positive and finite, got {radius}")

    h0 = 2.0 * radius / n_base
    tol = 1e-9 * h0
    idx = np.stack(
        np.meshgrid(*([np.arange(n_base)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    lo = -radius + idx * h0
    width = np.full_like(lo, h0)
    levels = np.zeros(len(lo), dtype=np.int64)

    for _ in range(max_level):
        levels, lo, width = _refine(levels, lo, width, _origin_nearest_mask(lo, width, tol))
        for _ in range(max_level + 2):
            viol = _balance_violators(levels, lo, width, tol)
            if not viol.any():
                break
            levels, lo, width = _refine(levels, lo, width, viol)
        else:
            raise MeshError("2:1 balance could not be restored")

    order = np.lexsort(tuple(lo[:, d] for d in reversed(range(dim))))
    return VelocityMesh(dim, float(radius), int(n_base), levels[order], lo[order], width[order])


def ip_count(mesh: VelocityMesh, degree: int) -> int:
    """Total integration points: cells times (p+1)^dim."""
    return mesh.n_cells * (degree + 1) ** mesh.dim

