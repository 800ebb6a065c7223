"""Per-direction pencil decomposition of the velocity mesh in CSR form.

A pencil is a maximal gap-free run of cells sharing a transverse extent
along one sweep axis: one pencil per distinct list of member cells.
Pencils are extracted in three steps: collect the unique transverse edge
coordinates, form the Cartesian product of the resulting transverse
intervals and gather for each rectangle the cells covering it, then merge
the rectangles covered by the same cells into one pencil (a 1V mesh has
one empty rectangle).  A pencil's transverse rectangle is the
intersection of its cells' transverse boxes, so a pencil of coarse cells
is not cut at transverse edges of finer cells elsewhere in the mesh.  A
coarse cell lies in several pencils only where a cell along its line is
refined; each entry's weight is the share of the cell's transverse area
that the pencil's rectangle covers, so the weights of a cell sum to one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .vmesh import VelocityMesh


class PencilError(ValueError):
    pass


# A conforming cell's neighbors up to this many positions away along its
# pencil sit at its level.
CONFORMING_RADIUS = 2


@dataclass
class PencilSet:
    """CSR pencil arrays for one sweep direction.

    offsets[q]:offsets[q+1] delimits pencil q inside the aligned entry
    arrays cell_ids / lowers / widths / levels / weights / conforming.
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
    conforming: np.ndarray = field(default=None)

    def pencil_slice(self, q: int) -> slice:
        return slice(int(self.offsets[q]), int(self.offsets[q + 1]))


def _unique_edges(vals: np.ndarray, tol: float) -> np.ndarray:
    vals = np.sort(vals)
    keep = np.ones(len(vals), dtype=bool)
    keep[1:] = np.diff(vals) > tol
    return vals[keep]


def extract_pencils(mesh: VelocityMesh, direction: int) -> PencilSet:
    """Decompose the mesh into pencils along `direction`.

    Returns one pencil per distinct list of cells covering a rectangle of
    the Cartesian product of transverse edges, ordered by its first such
    rectangle (first transverse dimension varying fastest); its rectangle
    is the intersection of its cells' transverse boxes, the union of the
    rectangles it merges.  Raises PencilError when a rectangle is covered
    by no cell or a pencil has a gap or overlap, naming the pencil and the
    offending coordinate.  Conforming flags are left unset; call
    classify_conforming afterwards.
    """
    if not 0 <= direction < mesh.dim:
        raise PencilError(f"direction must be in [0, {mesh.dim}), got {direction}")
    tol = 1e-9 * mesh.base_width
    t_dims = [t for t in range(mesh.dim) if t != direction]

    intervals = []
    for t in t_dims:
        edges = _unique_edges(
            np.concatenate([mesh.lo[:, t], mesh.lo[:, t] + mesh.width[:, t]]), tol
        )
        intervals.append(list(zip(edges[:-1], edges[1:])))
    # Rectangles of the Cartesian product of the intervals, in lexicographic
    # order (first transverse dimension fastest), each mapped to the cells
    # covering it.  Rectangles covered by the same cells make one pencil, in
    # order of their first rectangle.  A 1V mesh has one empty rectangle,
    # so one pencil of every cell.
    pencil_members = {}
    for q, rect in enumerate(itertools.product(*intervals[::-1])):
        covers = np.ones(mesh.n_cells, dtype=bool)
        for t, (a, b) in zip(t_dims, rect[::-1]):
            covers &= (mesh.lo[:, t] <= a + tol) & (mesh.lo[:, t] + mesh.width[:, t] >= b - tol)
        ids = np.nonzero(covers)[0]
        if ids.size == 0:
            raise PencilError(f"rectangle {q} in direction {direction} covers no cells")
        pencil_members.setdefault(ids.tobytes(), ids)
    pencil_members = list(pencil_members.values())

    offsets = [0]
    cell_ids = []
    for q, ids in enumerate(pencil_members):
        order = np.argsort(mesh.lo[ids, direction], kind="stable")
        ids = ids[order]
        lo = mesh.lo[ids, direction]
        w = mesh.width[ids, direction]
        if abs(lo[0] + mesh.radius) > tol or abs(lo[-1] + w[-1] - mesh.radius) > tol:
            raise PencilError(
                f"pencil {q} in direction {direction} does not span the domain: "
                f"[{lo[0]}, {lo[-1] + w[-1]}]"
            )
        gaps = np.abs(lo[1:] - (lo[:-1] + w[:-1]))
        if gaps.size and gaps.max() > tol:
            k = int(np.argmax(gaps))
            raise PencilError(
                f"pencil {q} in direction {direction}: gap or overlap at "
                f"coordinate {lo[k] + w[k]}"
            )
        cell_ids.append(ids)
        offsets.append(offsets[-1] + len(ids))

    cell_ids = np.concatenate(cell_ids)
    # Each pencil's rectangle is the intersection of its cells' transverse
    # boxes: the cells tile every line through it, so no other cell meets it.
    box_lo = mesh.lo[cell_ids][:, t_dims]
    box_hi = box_lo + mesh.width[cell_ids][:, t_dims]
    t_lowers = np.maximum.reduceat(box_lo, offsets[:-1], axis=0)
    t_widths = np.minimum.reduceat(box_hi, offsets[:-1], axis=0) - t_lowers
    pencil_of = np.repeat(np.arange(len(pencil_members)), np.diff(offsets))
    area_share = np.prod(t_widths[pencil_of] / mesh.width[cell_ids][:, t_dims], axis=1)
    counts = np.bincount(cell_ids, minlength=mesh.n_cells)
    if (counts == 0).any():
        missing = int(np.nonzero(counts == 0)[0][0])
        raise PencilError(f"cell {missing} appears in no pencil of direction {direction}")

    return PencilSet(
        direction=direction,
        n_pencils=len(pencil_members),
        offsets=np.asarray(offsets, dtype=np.int64),
        cell_ids=cell_ids,
        lowers=mesh.lo[cell_ids, direction].copy(),
        widths=mesh.width[cell_ids, direction].copy(),
        levels=mesh.levels[cell_ids].copy(),
        weights=area_share,
        t_lowers=t_lowers,
        t_widths=t_widths,
    )


def classify_conforming(pset: PencilSet) -> PencilSet:
    """Flag each pencil entry whose neighbors within CONFORMING_RADIUS share its level.

    A destination cell s with integer shift n reads source cells s-n and
    s-n-1, which together with every cell between them and s lie within
    s +- CONFORMING_RADIUS exactly when -CONFORMING_RADIUS <= n <=
    CONFORMING_RADIUS - 1.  In that window index arithmetic equals
    coordinate arithmetic for a conforming cell, so the sweep's fast path
    takes its level's overlap pair there; larger shifts go to the slow path.

    The neighbor lookup wraps at the pencil ends, so one plan serves both
    boundary modes: periodic sweeps read the wrapped neighbors, and for
    absorbing sweeps the rule is only stricter than needed.  Single-cell
    pencils are always nonconforming: a periodic shift reads their one cell
    as both the same and the neighbor source, which the fast path's index
    arithmetic does not add up.
    """
    lengths = np.diff(pset.offsets)
    start = np.repeat(pset.offsets[:-1], lengths)[:, None]
    length = np.repeat(lengths, lengths)[:, None]
    offs = np.array([k for k in range(-CONFORMING_RADIUS, CONFORMING_RADIUS + 1) if k])
    local = np.arange(len(pset.levels))[:, None] - start
    neighbors = start + (local + offs) % length
    same = pset.levels[neighbors] == pset.levels[:, None]
    pset.conforming = (length[:, 0] > 1) & same.all(axis=1)
    return pset
