"""Hybrid fast/slow SLDG sweep over one velocity direction of an AMR mesh.

The sweep assembles, per pencil group and swept column, one dense linear
operator on a pencil line and applies it to all of the group's lines with
one batched product.  Conforming cells take their level's precomputed
overlap pair at index offsets (the cost of the uniform-grid method);
nonconforming cells at refinement boundaries take generalized overlap
blocks against every source cell that intersects the foot interval.  A
coarse cell appearing in several finer pencils enters each one prolonged
to the GLL nodes of that pencil's transverse rectangle; its pencil results
are L2-projected back onto its transverse basis and summed (weighted
accumulation).  The restrictions of a cell's entries sum to the identity
on its prolongations, so mass and every transverse moment of degree <= p
are preserved.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DGBasis
from .pencil import CONFORMING_RADIUS, PencilSet
from .sldg1d import ABSORBING, PERIODIC, check_bc, decompose_shift, overlap_blocks, overlap_pair
from .sldg1d import apply_update  # noqa: F401 - the traced benchmark wraps vsweep.apply_update
from .tensor import TensorPermutation
from .vmesh import VelocityMesh


class SweepError(RuntimeError):
    pass


@dataclass(frozen=True)
class LevelMatrices:
    """Per-refinement-level shift decompositions and overlap pairs.

    For an array of speeds, each level's n_shift and frac have the speeds'
    shape and its pair holds the matrices stacked in the same shape.
    """

    n_shift: tuple
    frac: tuple
    pairs: tuple


def precompute_level_matrices(basis: DGBasis, speed, dt: float,
                              base_width: float, n_levels: int) -> LevelMatrices:
    """Shift decomposition and overlap pair for each level 0..n_levels-1.

    Level widths halve per level, so each level gets its own fractional
    shift; the resulting pair is reused for every conforming cell at that
    level, which keeps the per-cell cost identical to a uniform grid.
    `speed` may be an array of column speeds.
    """
    shifts = [decompose_shift(speed, dt, base_width / 2**lev) for lev in range(n_levels)]
    return LevelMatrices(tuple(d.n_shift for d in shifts),
                         tuple(d.frac for d in shifts),
                         tuple(overlap_pair(basis, d.frac) for d in shifts))


# The column sweep calls this under a private name, so that wrapping the
# public single-speed entry point (as perfbench/spans.py does) sees only
# its direct callers.
_level_matrices = precompute_level_matrices


def _foot_segments(foot_lo, width, disp, bc, radius):
    """Split foot intervals into in-domain segments.

    Returns (owner, lo, hi, disp) arrays with one entry per segment: the
    index of its foot interval, its bounds, and the effective displacement
    mapping its (possibly wrapped) coordinates back to destination
    coordinates.  Periodic feet are reduced modulo the domain length first,
    so arbitrarily large displacements wrap cleanly; a reduced foot still
    straddling the upper boundary splits in two.  Absorbing segments are
    clipped to the domain and may be empty.
    """
    foot_hi = foot_lo + width
    owner = np.arange(len(foot_lo))
    if bc == ABSORBING:
        return owner, np.maximum(foot_lo, -radius), np.minimum(foot_hi, radius), disp
    span = 2.0 * radius
    k = np.floor((foot_lo + radius) / span)
    a = foot_lo - k * span
    b = foot_hi - k * span
    wrap = b > radius
    return (np.concatenate([owner, owner[wrap]]),
            np.concatenate([a, np.full(int(wrap.sum()), -radius)]),
            np.concatenate([np.minimum(b, radius), b[wrap] - span]),
            np.concatenate([disp + k * span, disp[wrap] + (k[wrap] + 1.0) * span]))


def _pencil_operators(lm: LevelMatrices, disp, lowers, widths, levels, conforming,
                      bc, radius, basis: DGBasis, force_slow: bool) -> np.ndarray:
    """Dense SLDG update operators of one pencil layout, one per speed.

    `lm` holds the level matrices of the speeds and `disp` their
    displacements speed*dt.  Returns (n_speeds, n*(p+1), n*(p+1)) operators
    acting on a line's values in sweep order.  A conforming destination
    cell s whose integer shift n at its level lies in [-CONFORMING_RADIUS,
    CONFORMING_RADIUS - 1] reads sources s-n and s-n-1 inside its
    same-level neighborhood, so it takes its level's same/neighbor pair at
    index offsets; every other cell (all of them with `force_slow`) sums
    generalized overlap blocks against the source cells its foot interval
    meets.  Absorbing boundaries read zero outside [-radius, radius];
    periodic boundaries wrap foot coordinates by multiples of the domain
    length.
    """
    o = basis.n_nodes
    n = len(lowers)
    disp = np.reshape(disp, -1)
    n_cols = disp.size
    shift = np.stack([np.reshape(lm.n_shift[lev], -1) for lev in levels], axis=1)
    fast = conforming & (shift >= -CONFORMING_RADIUS) & (shift < CONFORMING_RADIUS)
    fast &= not force_slow
    # op[j, s, :, c, :] is the block mapping source cell c to destination s.
    op = np.zeros((n_cols, n, o, n, o))

    j, s = np.nonzero(fast)
    if j.size:
        same = np.stack([np.reshape(pair.same, (n_cols, o, o)) for pair in lm.pairs])
        nb = np.stack([np.reshape(pair.neighbor, (n_cols, o, o)) for pair in lm.pairs])
        q = s - shift[j, s]
        for src, mats in ((q, same[levels[s], j]), (q - 1, nb[levels[s], j])):
            ok = (bc == PERIODIC) | ((src >= 0) & (src < n))
            op[j[ok], s[ok], :, src[ok] % n] = mats[ok]

    j, s = np.nonzero(~fast)
    if j.size:
        seg, a, b, de = _foot_segments(lowers[s] - disp[j], widths[s], disp[j], bc, radius)
        vl = np.maximum(a[:, None], lowers)
        vr = np.minimum(b[:, None], lowers + widths)
        r, c = np.nonzero(vr - vl > 1e-14 * widths[s[seg]][:, None])
        dest = s[seg[r]]
        raw = overlap_blocks(basis, vl[r, c], vr[r, c], lowers[dest], widths[dest],
                             lowers[c], widths[c], de[r])
        np.add.at(op, (j[seg[r]], dest, slice(None), c), basis.mass_inv @ raw)
    return op.reshape(n_cols, n * o, n * o)


def sweep_pencil(values, lowers, widths, levels, conforming, speed, dt,
                 lm: LevelMatrices, bc, radius, basis: DGBasis,
                 force_slow: bool = False):
    """Hybrid SLDG update of one pencil at one speed, batched over leading axes.

    `values` has shape (..., n_cells, p+1) in sweep order and `lm` holds the
    level matrices of `speed`.  The pencil's operator is assembled as in
    the column sweep and applied to every line.
    """
    check_bc(bc)
    values = np.asarray(values, dtype=float)
    n = len(lowers)
    o = basis.n_nodes
    if values.shape[-2:] != (n, o):
        raise SweepError(
            f"pencil values shaped {values.shape[-2:]}, expected ({n}, {o})"
        )
    op = _pencil_operators(lm, speed * dt, lowers, widths, levels, conforming,
                           bc, radius, basis, force_slow)[0]
    return (values.reshape(-1, n * o) @ op.T).reshape(values.shape)


@dataclass
class _PencilGroup:
    """Pencils sharing an identical cell layout, batched into one update."""

    lowers: np.ndarray
    widths: np.ndarray
    levels: np.ndarray
    conforming: np.ndarray
    n_lines: int
    n_cells: int
    gather: np.ndarray        # (n_lines, n_cells*(p+1)) positions in a packed column


@dataclass(frozen=True)
class _SharedCells:
    """Shared cells lying in the same number k of pencils."""

    entries: slice            # their shared entries, k consecutive ones per cell
    restrict: np.ndarray      # (n_cells, lines, k*lines): the k entry restrictions side by side
    rows: np.ndarray          # (n_cells*o^3,) DOF ids of the cells, in line layout


@dataclass
class SweepPlan:
    """Static pack / sweep / write-back layout for one direction of a mesh.

    A velocity column is packed into a vector of n_packed entries: the
    column itself, followed by o^3 values per shared entry (an entry of a
    cell that lies in several pencils), in the cell's line layout.  A
    shared entry holds the cell's polynomial prolonged to the GLL nodes of
    its pencil's transverse rectangle.  Every packed position except the
    shared cells' own DOFs belongs to exactly one pencil line, so a group
    gathers its lines from the packed column and scatters its results back
    to the same positions.  The write-back copies the single-pencil cells
    and L2-projects the entries of each shared cell back onto its
    transverse basis.
    """

    direction: int
    basis: DGBasis
    radius: float
    base_width: float
    n_levels: int
    n_dofs: int
    groups: list
    src_rows: np.ndarray      # (n_shared*o^3,) DOF ids of each shared entry's cell
    prolong: np.ndarray       # (n_shared, lines, lines) transverse prolongation
    shared: tuple             # _SharedCells, one per pencil count

    @property
    def n_packed(self) -> int:
        return self.n_dofs + len(self.src_rows)


def _transfer_1d(basis, sub_lo, sub_w, cell_lo, cell_w, tol):
    """Prolongation and restriction along one transverse axis, per entry.

    P[e, i, m] is cell basis function m at GLL node i of the entry's
    sub-interval; R[e] = (sub_w / cell_w) M^-1 P[e]^T M projects a
    sub-interval polynomial onto the cell basis.  Summed over sub-intervals
    tiling the cell, R P = M^-1 M = I.  Entries spanning the whole cell get
    exact identities.
    """
    o = basis.n_nodes
    ratio = sub_w / cell_w
    start = 2.0 * (sub_lo - cell_lo) / cell_w - 1.0
    prolong = basis.eval_all(start[:, None] + ratio[:, None] * (basis.nodes + 1.0))
    restrict = ratio[:, None, None] * (
        basis.mass_inv @ prolong.transpose(0, 2, 1) @ basis.mass
    )
    whole = np.abs(sub_w - cell_w) <= tol
    prolong[whole] = np.eye(o)
    restrict[whole] = np.eye(o)
    return prolong, restrict


def build_sweep_plan(mesh: VelocityMesh, pset: PencilSet, perm: TensorPermutation,
                     basis: DGBasis) -> SweepPlan:
    """Group congruent pencils and precompute their packed gather indices.

    Pencils with identical cell layout (same coordinates, widths, levels)
    share their update operator for any speed, so their transverse lines
    are batched into one matrix product per swept column.  Cells
    lying in several pencils get per-entry transverse prolongation and
    restriction matrices (Kronecker products of the 1D ones).  Raises
    SweepError unless the pencil weights of every cell sum to one.
    """
    o = basis.n_nodes
    n_local = perm.n_local
    lines = perm.lines[pset.direction]
    n_tl = len(lines)
    n_dofs = mesh.n_cells * n_local

    wsum = np.bincount(pset.cell_ids, weights=pset.weights, minlength=mesh.n_cells)
    bad = np.abs(wsum - 1.0) > 1e-12
    if bad.any():
        c = int(np.nonzero(bad)[0][0])
        raise SweepError(
            f"sweep plan leaves velocity DOFs uncovered: pencils cover cell {c} "
            f"with total weight {wsum[c]:.6g}, expected 1"
        )

    counts = np.bincount(pset.cell_ids, minlength=mesh.n_cells)
    shared = np.nonzero(counts[pset.cell_ids] > 1)[0]
    shared = shared[np.lexsort((pset.cell_ids[shared], counts[pset.cell_ids[shared]]))]
    n_shared = len(shared)
    slot = np.full(len(pset.cell_ids), -1, dtype=np.int64)
    slot[shared] = np.arange(n_shared)
    cells = pset.cell_ids[shared]

    prolong = np.empty((n_shared, n_tl, n_tl))
    restrict = np.empty((n_shared, n_tl, n_tl))
    if n_shared:
        tol = 1e-9 * mesh.base_width
        pencil_of = np.repeat(np.arange(pset.n_pencils), np.diff(pset.offsets))[shared]
        t_dims = [t for t in range(mesh.dim) if t != pset.direction]
        (p1, r1), (p2, r2) = (
            _transfer_1d(basis, pset.t_lowers[pencil_of, a], pset.t_widths[pencil_of, a],
                         mesh.lo[cells, t], mesh.width[cells, t], tol)
            for a, t in enumerate(t_dims)
        )
        # Line t = t1 + o*t2 runs along transverse nodes (t1, t2).
        prolong[:] = np.einsum("eac,ebd->eabcd", p2, p1).reshape(n_shared, n_tl, n_tl)
        restrict[:] = np.einsum("eac,ebd->eabcd", r2, r1).reshape(n_shared, n_tl, n_tl)

    shared_cells = []
    start = 0
    for k in np.unique(counts[cells]):
        n_k = int((counts[cells] == k).sum()) // k
        stop = start + n_k * k
        shared_cells.append(_SharedCells(
            entries=slice(start, stop),
            restrict=restrict[start:stop].reshape(n_k, k, n_tl, n_tl)
            .transpose(0, 2, 1, 3).reshape(n_k, n_tl, k * n_tl),
            rows=(cells[start:stop:k, None, None] * n_local + lines[None]).ravel(),
        ))
        start = stop

    # Packed position of every (entry, line, sweep node).
    own = pset.cell_ids[:, None, None] * n_local + lines[None]
    prolonged = n_dofs + slot[:, None, None] * (n_tl * o) + np.arange(n_tl * o).reshape(n_tl, o)
    pos = np.where(slot[:, None, None] >= 0, prolonged, own)

    grouped: dict = {}
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        key = (pset.levels[sl].tobytes(), pset.lowers[sl].tobytes(),
               pset.widths[sl].tobytes())
        grouped.setdefault(key, []).append(q)

    groups = []
    for qs in grouped.values():
        sl0 = pset.pencil_slice(qs[0])
        n_cells = sl0.stop - sl0.start
        entries = np.concatenate(
            [np.arange(pset.offsets[q], pset.offsets[q + 1]) for q in qs]
        ).reshape(len(qs), n_cells)
        gather = pos[entries].transpose(0, 2, 1, 3).reshape(len(qs) * n_tl, n_cells * o)
        groups.append(
            _PencilGroup(
                lowers=pset.lowers[sl0].copy(),
                widths=pset.widths[sl0].copy(),
                levels=pset.levels[sl0].copy(),
                conforming=pset.conforming[sl0].copy(),
                n_lines=gather.shape[0],
                n_cells=n_cells,
                gather=gather,
            )
        )

    return SweepPlan(
        direction=pset.direction,
        basis=basis,
        radius=mesh.radius,
        base_width=mesh.base_width,
        n_levels=int(mesh.levels.max()) + 1,
        n_dofs=n_dofs,
        groups=groups,
        src_rows=own[shared].ravel(),
        prolong=prolong,
        shared=tuple(shared_cells),
    )


def pack_columns(f, cols: slice, plan: SweepPlan) -> np.ndarray:
    """Packed copies, shaped (plan.n_packed, n_cols), of the columns f[:, cols].

    Each packed column is one column of the result, so the block keeps the
    row layout of f.  The prolongation runs once for the whole block: a
    batched product over shared entries with the columns folded into the
    matrix width.
    """
    n_shared, n_tl, _ = plan.prolong.shape
    block = f[:, cols]
    out = np.empty((plan.n_packed, block.shape[1]))
    out[: plan.n_dofs] = block
    if n_shared:
        src = f[plan.src_rows, cols].reshape(n_shared, n_tl, -1)
        out[plan.n_dofs :] = (plan.prolong @ src).reshape(-1, block.shape[1])
    return out


def write_back(f, cols: slice, packed, plan: SweepPlan) -> None:
    """Store packed columns (as from pack_columns) into f[:, cols].

    Cells lying in one pencil are copied bit for bit; each shared cell
    receives the sum of its entries' restrictions, the L2 projection of its
    piecewise pencil results onto its transverse basis.
    """
    n_cols = packed.shape[1]
    f[:, cols] = packed[: plan.n_dofs]
    if plan.shared:
        res = packed[plan.n_dofs :].reshape(len(plan.prolong), plan.prolong.shape[1], -1)
        for sc in plan.shared:
            part = res[sc.entries].reshape(len(sc.restrict), sc.restrict.shape[2], -1)
            f[sc.rows, cols] = (sc.restrict @ part).reshape(-1, n_cols)


# Columns are swept this many at a time: the transfer products and the
# operator assembly are batched over a block, and the packed copy stays a
# few MB.
_COLUMN_BLOCK = 16


def _column_blocks(cols):
    """Slices of at most _COLUMN_BLOCK consecutive columns covering `cols`."""
    for run in np.split(cols, np.nonzero(np.diff(cols) != 1)[0] + 1):
        for b in range(run[0], run[-1] + 1, _COLUMN_BLOCK):
            yield slice(b, min(b + _COLUMN_BLOCK, run[-1] + 1))


def advect_velocity(f, speeds, dt, plan: SweepPlan, bc: str = ABSORBING,
                    force_slow: bool = False):
    """Advect every spatial column of the field along the plan's direction.

    `f` has shape (n_velocity_dofs, n_x_dofs); column ix moves with speed
    speeds[ix].  Columns with exactly zero speed are skipped, leaving their
    bits untouched.  The moving columns go in blocks of consecutive ones:
    each block is packed, every pencil group assembles one operator per
    column and applies it to all of its lines with one batched product,
    and the block is written back.  Updates f in place and returns it.
    """
    check_bc(bc)
    speeds = np.asarray(speeds, dtype=float)
    if f.shape != (plan.n_dofs, speeds.size):
        raise SweepError(
            f"field shaped {f.shape}, expected ({plan.n_dofs}, {speeds.size})"
        )
    cols = np.nonzero(speeds != 0.0)[0]
    if cols.size == 0:
        return f
    basis = plan.basis
    for block in _column_blocks(cols):
        packed = pack_columns(f, block, plan)
        lm = _level_matrices(basis, speeds[block], dt, plan.base_width, plan.n_levels)
        for g in plan.groups:
            op = _pencil_operators(lm, speeds[block] * dt, g.lowers, g.widths, g.levels,
                                   g.conforming, bc, plan.radius, basis, force_slow)
            lines = packed[g.gather].transpose(2, 0, 1)
            packed[g.gather] = (lines @ op.transpose(0, 2, 1)).transpose(1, 2, 0)
        write_back(f, block, packed, plan)
    return f
