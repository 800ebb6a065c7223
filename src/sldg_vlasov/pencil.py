"""Per-direction pencil decomposition of the velocity mesh in CSR form.

A pencil is a maximal gap-free run of cells sharing a transverse extent
along one sweep axis: one pencil per distinct list of member cells.  The
mesh must be a forest of octrees, as every mesh that `build_mesh` and
`vsweep.sweep_pencil` build is: any two cells' transverse boxes are then
nested or disjoint, so a pencil is read off a minimal box, one that holds
no smaller box, and its cells are those whose boxes hold it (a 1V mesh
has one empty box, so one pencil of every cell).  A pencil's transverse
rectangle is the intersection of its cells' transverse boxes, so a pencil
of coarse cells is not cut at transverse edges of finer cells elsewhere
in the mesh.  A coarse cell lies in several pencils only where a cell
along its line is refined; each entry's weight is the share of the cell's
transverse area that the pencil's rectangle covers, so the weights of a
cell sum to one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vmesh import VelocityMesh


class PencilError(ValueError):
    pass


@dataclass(frozen=True)
class PencilSet:
    """CSR pencil arrays for one sweep direction.

    offsets[q]:offsets[q+1] delimits pencil q inside the aligned entry
    arrays cell_ids / lowers / widths / levels / weights.
    Entries within a pencil are sorted by sweep coordinate and tile
    [-R, R] without gaps.  t_lowers[q] / t_widths[q] give the transverse
    rectangle of pencil q, one column per transverse axis in increasing
    axis order; weights[k] is the share of entry k's cell transverse area
    that its pencil's rectangle covers.
    """

    direction: int
    n_pencils: int
    offsets: np.ndarray
    cell_ids: np.ndarray
    lowers: np.ndarray
    widths: np.ndarray
    levels: np.ndarray
    weights: np.ndarray
    t_lowers: np.ndarray
    t_widths: np.ndarray

    def pencil_slice(self, q: int) -> slice:
        return slice(int(self.offsets[q]), int(self.offsets[q + 1]))


def extract_pencils(mesh: VelocityMesh, direction: int) -> PencilSet:
    """Decompose the mesh into pencils along `direction`.

    Returns one pencil per minimal transverse box, one that holds no
    strictly smaller cell box, ordered by its lower corner (last transverse
    axis slowest).  Its cells are those whose boxes hold it, and its
    rectangle is the intersection of their boxes.  This needs nested or
    disjoint boxes: raises PencilError when a pencil does not span the
    domain or has a gap or overlap, naming the pencil and the offending
    coordinate, or when the rectangles do not tile the transverse domain.
    """
    if (isinstance(direction, bool) or not isinstance(direction, (int, np.integer))
            or not 0 <= direction < mesh.dim):
        raise PencilError(f"direction must be an integer in [0, {mesh.dim}), got {direction!r}")
    tol = 1e-9 * mesh.base_width
    t_dims = [t for t in range(mesh.dim) if t != direction]
    t_lo = mesh.lo[:, t_dims]
    t_hi = t_lo + mesh.width[:, t_dims]
    # Distinct boxes, their axes reversed so that rows sort by lower corner
    # with the last transverse axis slowest; holds[i, j]: box i holds box j.
    boxes, box_of = np.unique(
        np.hstack([t_lo[:, ::-1], t_hi[:, ::-1]]), axis=0, return_inverse=True
    )
    box_lo, box_hi = np.hsplit(boxes, 2)
    holds = ((box_lo[:, None] <= box_lo + tol) & (box_hi[:, None] >= box_hi - tol)).all(axis=2)
    minimal = np.nonzero(~(holds & ~holds.T).any(axis=1))[0]
    n_pencils = len(minimal)
    # A pencil's cells are the cells of every box that holds its box.
    cells_in = np.split(np.argsort(box_of, kind="stable"), np.cumsum(np.bincount(box_of))[:-1])
    pencil_of, box = np.nonzero(holds[:, minimal].T)
    cell_ids = np.concatenate([cells_in[b] for b in box])
    pencil_of = np.repeat(pencil_of, [len(cells_in[b]) for b in box])
    order = np.lexsort((mesh.lo[cell_ids, direction], pencil_of))
    pencil_of, cell_ids = pencil_of[order], cell_ids[order]
    offsets = np.searchsorted(pencil_of, np.arange(n_pencils + 1))

    lo = mesh.lo[cell_ids, direction]
    hi = lo + mesh.width[cell_ids, direction]
    first, last = offsets[:-1], offsets[1:] - 1
    off_span = (np.abs(lo[first] + mesh.radius) > tol) | (np.abs(hi[last] - mesh.radius) > tol)
    if off_span.any():
        q = int(np.argmax(off_span))
        raise PencilError(
            f"pencil {q} in direction {direction} does not span the domain: "
            f"[{lo[first[q]]}, {hi[last[q]]}]"
        )
    gaps = np.abs(lo[1:] - hi[:-1])
    gaps[last[:-1]] = 0.0  # a pencil's last cell and the next pencil's first
    if gaps.size and gaps.max() > tol:
        k = int(np.argmax(gaps))
        raise PencilError(
            f"pencil {pencil_of[k]} in direction {direction}: gap or overlap at "
            f"coordinate {hi[k]}"
        )

    # Each pencil's rectangle is the intersection of its cells' transverse
    # boxes: the cells tile every line through it, so no other cell meets it.
    t_lowers = np.maximum.reduceat(t_lo[cell_ids], first, axis=0)
    t_widths = np.minimum.reduceat(t_hi[cell_ids], first, axis=0) - t_lowers
    area = t_widths.prod(axis=1).sum()
    full = (2 * mesh.radius) ** len(t_dims)
    if abs(area - full) > 1e-9 * full:
        raise PencilError(
            f"pencil rectangles in direction {direction} cover {area} of the "
            f"transverse area {full}: the cells' boxes are not nested or leave a hole"
        )

    return PencilSet(
        direction=direction,
        n_pencils=n_pencils,
        offsets=offsets,
        cell_ids=cell_ids,
        lowers=lo,
        widths=mesh.width[cell_ids, direction],
        levels=mesh.levels[cell_ids],
        weights=np.prod(t_widths[pencil_of] / mesh.width[cell_ids][:, t_dims], axis=1),
        t_lowers=t_lowers,
        t_widths=t_widths,
    )

