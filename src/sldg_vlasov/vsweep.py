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

The plan also fixes the row order of the velocity DOFs: each group's rows
run by sweep position, then by line, so for every x column a group whose
cells lie in no other pencil is a contiguous (positions, lines) matrix
that the operator multiplies in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DGBasis
from .pencil import CONFORMING_RADIUS, PencilSet, classify_conforming, extract_pencils
from .sldg1d import ABSORBING, PERIODIC, check_bc, decompose_shift, overlap_blocks, overlap_pair
from .sldg1d import apply_update  # noqa: F401 - the traced benchmark wraps vsweep.apply_update
from .tensor import TensorPermutation, build_permutation
from .vmesh import VelocityMesh


class SweepError(RuntimeError):
    pass


@dataclass(frozen=True)
class LevelMatrices:
    """Shift decompositions and overlap pairs indexed [level, speed].

    For speeds shaped S, n_shift and frac are shaped (n_levels,) + S and
    same / neighbor (n_levels,) + S + (p+1, p+1).
    """

    n_shift: np.ndarray
    frac: np.ndarray
    same: np.ndarray
    neighbor: np.ndarray


def precompute_level_matrices(basis: DGBasis, speed, dt: float,
                              base_width: float, n_levels: int) -> LevelMatrices:
    """Shift decomposition and overlap pair for each level 0..n_levels-1.

    Level widths halve per level, so each level gets its own fractional
    shift; the resulting pair is reused for every conforming cell at that
    level, which keeps the per-cell cost identical to a uniform grid.
    `speed` may be an array of column speeds; scaled by 2**lev, which is
    exact, it decomposes against the base width in one call.
    """
    d = decompose_shift(np.multiply.outer(2.0 ** np.arange(n_levels), speed), dt, base_width)
    pair = overlap_pair(basis, d.frac)
    return LevelMatrices(d.n_shift, d.frac, pair.same, pair.neighbor)


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


def _pencil_operators(lm: LevelMatrices, disp, group: _PencilGroup, plan: SweepPlan,
                      bc, force_slow: bool) -> np.ndarray:
    """Dense SLDG update operators of one pencil group, one per speed.

    `lm` holds the level matrices of the speeds and `disp` their
    displacements speed*dt.  Returns (n_speeds, n*(p+1), n*(p+1)) operators
    acting on a line's values in sweep order.  A conforming destination
    cell s whose integer shift n at its level lies in [-CONFORMING_RADIUS,
    CONFORMING_RADIUS - 1] reads sources s-n and s-n-1 inside its
    same-level neighborhood, so it takes its level's same/neighbor pair at
    index offsets; every other cell (all of them with `force_slow`) sums
    generalized overlap blocks against the source cells its foot interval
    meets.  Absorbing boundaries read zero outside [-R, R]; periodic
    boundaries wrap foot coordinates by multiples of the domain length.
    """
    basis = plan.basis
    lowers, widths, levels = group.lowers, group.widths, group.levels
    o = basis.n_nodes
    n = group.n_cells
    n_cols = disp.size
    shift = lm.n_shift[levels].T
    fast = group.conforming & (shift >= -CONFORMING_RADIUS) & (shift < CONFORMING_RADIUS)
    fast &= not force_slow
    # op[j, s, :, c, :] is the block mapping source cell c to destination s.
    op = np.zeros((n_cols, n, o, n, o))

    j, s = np.nonzero(fast)
    if j.size:
        q = s - shift[j, s]
        for src, mats in ((q, lm.same[levels[s], j]), (q - 1, lm.neighbor[levels[s], j])):
            ok = (bc == PERIODIC) | ((src >= 0) & (src < n))
            op[j[ok], s[ok], :, src[ok] % n] = mats[ok]

    j, s = np.nonzero(~fast)
    if j.size:
        seg, a, b, de = _foot_segments(lowers[s] - disp[j], widths[s], disp[j], bc, plan.radius)
        vl = np.maximum(a[:, None], lowers)
        vr = np.minimum(b[:, None], lowers + widths)
        r, c = np.nonzero(vr - vl > 1e-14 * widths[s[seg]][:, None])
        dest = s[seg[r]]
        raw = overlap_blocks(basis, vl[r, c], vr[r, c], lowers[dest], widths[dest],
                             lowers[c], widths[c], de[r])
        np.add.at(op, (j[seg[r]], dest, slice(None), c), basis.mass_inv @ raw)
    return op.reshape(n_cols, n * o, n * o)


def sweep_pencil(values, widths, speed, dt, bc, basis: DGBasis, force_slow: bool = False):
    """Hybrid SLDG update of one pencil at one speed, batched over leading axes.

    `values` has shape (..., n_cells, p+1) in sweep order.  The cells tile
    [-R, R], R half their total width, and each cell's level is its number
    of halvings from the widest cell.  The pencil is swept as a 1V plan
    through advect_velocity, one line per column; `values` is not modified.
    """
    widths = np.asarray(widths, dtype=float)
    if widths.ndim != 1 or widths.size == 0 or not (np.isfinite(widths) & (widths > 0)).all():
        raise SweepError(f"pencil widths must be a nonempty 1-D array of positive numbers, "
                         f"got {widths}")
    h0 = widths.max()
    levels = np.round(np.log2(h0 / widths)).astype(np.int64)
    if (widths * 2.0**levels != h0).any():
        raise SweepError(f"each pencil width must be the widest, {h0}, halved a whole "
                         f"number of times, got {widths}")
    values = np.asarray(values, dtype=float)
    n, o = widths.size, basis.n_nodes
    if values.shape[-2:] != (n, o):
        raise SweepError(f"pencil values shaped {values.shape}, expected (..., {n}, {o})")
    total = widths.sum()
    lowers = -0.5 * total + np.concatenate([[0.0], np.cumsum(widths[:-1])])
    # n_base = total / h0 need not be whole: the pencil's cells need not
    # make up whole widest cells.
    mesh = VelocityMesh(1, 0.5 * total, total / h0, levels, lowers[:, None], widths[:, None])
    pset = classify_conforming(extract_pencils(mesh, 0))
    plan = build_sweep_plan(mesh, pset, build_permutation(basis, 1), basis)
    # The lines become x columns of an x-major copy; a 1V plan keeps the
    # cell-local row order.
    lines = values.reshape(-1, n * o).copy()
    advect_velocity(lines.T, np.full(len(lines), float(speed)), dt, plan, bc, force_slow)
    return lines.reshape(values.shape)


@dataclass
class _PencilGroup:
    """Pencils sharing an identical cell layout, batched into one update.

    The group's working block has one row per sweep position k =
    cell*(p+1) + node and one column per line, line = pencil*n_tl + t.
    Slots whose cell lies in this pencil only live in f as slabs: a slab
    (cells, pencils, rows, shape) holds the slots of a run of cells owned by
    the same pencils, stored at `rows` position-major, shaped
    (cells, p+1, pencils, n_tl) per x column.  The other slots are shared
    entries, indexed into the sweep's entry buffer.
    """

    lowers: np.ndarray
    widths: np.ndarray
    levels: np.ndarray
    conforming: np.ndarray
    n_lines: int
    n_cells: int
    rows: slice               # all of the group's owned rows
    slabs: tuple
    entries: np.ndarray       # (n_e,) shared entries in the group's slots ...
    entry_cells: np.ndarray   # ... at these cell positions ...
    entry_pencils: np.ndarray  # ... of these pencils


@dataclass(frozen=True)
class _SharedCells:
    """Shared cells lying in the same number k of pencils."""

    entries: slice            # their shared entries, k consecutive ones per cell
    restrict: np.ndarray      # (n_cells, lines, k*lines): the k entry restrictions side by side
    cells: np.ndarray         # (n_cells,) their positions among the shared cells


@dataclass
class SweepPlan:
    """Row order of the velocity DOFs and the sweep layout for one direction.

    Row r of f holds cell-local DOF order[r] (cell*(p+1)^dim + local id).
    Each pencil group owns a range of rows, its slabs, in which every run
    of lines at one sweep position is contiguous, so equal-speed rows sit
    together and a group with no shared cell sweeps its rows in place.
    The rows of cells lying in several pencils (shared cells) come last,
    in classes of cells with equal extent along the sweep axis: a class
    stored at `rows` holds its cells' values shaped (p+1, cells, n_tl).
    A shared entry (a shared cell in one of its pencils) holds the cell's
    polynomial prolonged to the GLL nodes of that pencil's transverse
    rectangle; after the sweep, the entries of each shared cell are
    L2-projected back onto its transverse basis and summed.
    """

    direction: int
    basis: DGBasis
    radius: float
    base_width: float
    n_levels: int
    n_dofs: int
    order: np.ndarray
    groups: list
    shared_classes: tuple     # (rows, positions) of each class of shared cells
    entry_cells: np.ndarray   # (n_entries,) position of each entry's cell
    prolong: np.ndarray       # (n_entries, lines, lines) transverse prolongation
    shared: tuple             # _SharedCells, one per pencil count

    @property
    def n_shared_cells(self) -> int:
        return self.shared_classes[-1][1].stop if self.shared_classes else 0


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
    """Group congruent pencils and order the velocity DOFs for the sweep.

    Pencils with identical cell layout (same coordinates, widths, levels)
    share their update operator for any speed, so their transverse lines
    are batched into one matrix product per swept column.  Within a group
    the pencils are sorted by which of their cells they own alone, so
    owned slots form few slabs.  Cells lying in several pencils get
    per-entry transverse prolongation and restriction matrices (Kronecker
    products of the 1D ones).  Raises SweepError unless the pencil weights
    of every cell sum to one.
    """
    o = basis.n_nodes
    n_local = perm.n_local
    d = pset.direction
    lines = perm.lines[d]
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

    prolong = np.ones((n_shared, n_tl, n_tl))
    restrict = np.ones((n_shared, n_tl, n_tl))
    tol = 1e-9 * mesh.base_width
    pencil_of = np.repeat(np.arange(pset.n_pencils), np.diff(pset.offsets))[shared]
    t_dims = [t for t in range(mesh.dim) if t != d]
    for a, t in enumerate(t_dims):
        p1, r1 = _transfer_1d(basis, pset.t_lowers[pencil_of, a], pset.t_widths[pencil_of, a],
                              mesh.lo[cells, t], mesh.width[cells, t], tol)
        # Each line's node on axis t, as the tensor layout places it.
        node = perm.forward[lines[:, 0], t]
        prolong *= p1[:, node[:, None], node]
        restrict *= r1[:, node[:, None], node]

    # Shared cells by extent along the sweep axis: a class of equal extents
    # has equal speeds at each node.
    ids = np.unique(cells)
    ids = ids[np.lexsort((ids, mesh.width[ids, d], mesh.lo[ids, d]))]
    position = np.zeros(mesh.n_cells, dtype=np.int64)
    position[ids] = np.arange(len(ids))

    shared_cells = []
    start = 0
    for k in np.unique(counts[cells]):
        n_k = int((counts[cells] == k).sum()) // k
        stop = start + n_k * k
        shared_cells.append(_SharedCells(
            entries=slice(start, stop),
            restrict=restrict[start:stop].reshape(n_k, k, n_tl, n_tl)
            .transpose(0, 2, 1, 3).reshape(n_k, n_tl, k * n_tl),
            cells=position[cells[start:stop:k]],
        ))
        start = stop

    grouped: dict = {}
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        key = (pset.levels[sl].tobytes(), pset.lowers[sl].tobytes(),
               pset.widths[sl].tobytes())
        grouped.setdefault(key, []).append(q)

    # Consecutive parts of the row order: cell-local DOF ids shaped
    # (cells, p+1, pencils, n_tl) per slab, (p+1, cells, n_tl) per class.
    order_parts = []
    n_rows = 0
    groups = []
    for qs in grouped.values():
        sl0 = pset.pencil_slice(qs[0])
        n_cells = sl0.stop - sl0.start
        entries = pset.offsets[qs][:, None] + np.arange(n_cells)
        owned = slot[entries] < 0
        by_mask = np.lexsort(owned.T[::-1])
        entries, owned = entries[by_mask], owned[by_mask]
        group_start = n_rows
        slabs = []
        # Slabs: runs of consecutive cells owned by the same pencils.
        change = np.ones(n_cells, dtype=bool)
        change[1:] = (owned[:, 1:] != owned[:, :-1]).any(axis=0)
        starts = np.flatnonzero(change).tolist()
        for c0, c1 in zip(starts, starts[1:] + [n_cells]):
            pencils = np.flatnonzero(owned[:, c0])
            if not pencils.size:
                continue
            ids_q = pset.cell_ids[entries[pencils, c0:c1]].T
            part = ids_q[:, None, :, None] * n_local + lines.T[None, :, None, :]
            order_parts.append(part.ravel())
            if pencils[-1] - pencils[0] + 1 == pencils.size:
                pencils = slice(int(pencils[0]), int(pencils[-1]) + 1)
            slabs.append((slice(c0, c1), pencils, slice(n_rows, n_rows + part.size),
                          part.shape))
            n_rows += part.size
        eq, ec = np.nonzero(~owned)
        groups.append(
            _PencilGroup(
                lowers=pset.lowers[sl0].copy(),
                widths=pset.widths[sl0].copy(),
                levels=pset.levels[sl0].copy(),
                conforming=pset.conforming[sl0].copy(),
                n_lines=len(qs) * n_tl,
                n_cells=n_cells,
                rows=slice(group_start, n_rows),
                slabs=tuple(slabs),
                entries=slot[entries[eq, ec]],
                entry_cells=ec,
                entry_pencils=eq,
            )
        )

    classes = []
    extent = np.stack([mesh.lo[ids, d], mesh.width[ids, d]], axis=1)
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (extent[1:] != extent[:-1]).any(axis=1)
    bounds = np.append(np.flatnonzero(first), len(ids))
    for a, b in zip(bounds[:-1], bounds[1:]):
        part = ids[None, a:b, None] * n_local + lines.T[:, None, :]
        order_parts.append(part.ravel())
        classes.append((slice(n_rows, n_rows + part.size), slice(int(a), int(b))))
        n_rows += part.size

    return SweepPlan(
        direction=d,
        basis=basis,
        radius=mesh.radius,
        base_width=mesh.base_width,
        n_levels=int(mesh.levels.max()) + 1,
        n_dofs=n_dofs,
        order=np.concatenate(order_parts),
        groups=groups,
        shared_classes=tuple(classes),
        entry_cells=position[cells],
        prolong=prolong,
        shared=tuple(shared_cells),
    )


def prolong_shared(block, plan: SweepPlan) -> np.ndarray:
    """Shared entries of the block's columns, shaped (n_entries, lines, n_cols, p+1).

    `block` is a C-contiguous (n_cols, n_dofs) block of x columns in plan
    row order.  The prolongation runs once for the whole block: a batched
    product over shared entries with the columns folded into the matrix
    width.
    """
    n_cols = block.shape[0]
    n_entries, n_tl, _ = plan.prolong.shape
    o = plan.basis.n_nodes
    values = np.empty((plan.n_shared_cells, n_tl, n_cols, o))
    for rows, cells in plan.shared_classes:
        values[cells] = block[:, rows].reshape(n_cols, o, -1, n_tl).transpose(2, 3, 0, 1)
    src = values[plan.entry_cells].reshape(n_entries, n_tl, n_cols * o)
    return (plan.prolong @ src).reshape(n_entries, n_tl, n_cols, o)


def restrict_shared(block, entries, plan: SweepPlan) -> None:
    """Store each shared cell's restricted entries into its rows of `block`.

    Each shared cell receives the sum of its entries' restrictions, the L2
    projection of its piecewise pencil results onto its transverse basis.
    Rows of cells lying in one pencil are not touched.
    """
    n_entries, n_tl, n_cols, o = entries.shape
    values = np.empty((plan.n_shared_cells, n_tl, n_cols, o))
    flat = entries.reshape(n_entries, n_tl, n_cols * o)
    for sc in plan.shared:
        part = flat[sc.entries].reshape(len(sc.cells), sc.restrict.shape[2], -1)
        values[sc.cells] = (sc.restrict @ part).reshape(len(sc.cells), n_tl, n_cols, o)
    for rows, cells in plan.shared_classes:
        block[:, rows].reshape(n_cols, o, -1, n_tl)[...] = values[cells].transpose(2, 3, 0, 1)


# Columns are swept this many at a time: the transfer products and the
# operator assembly are batched over a block, and the working arrays stay a
# few MB.  Of 8, 16, 32 and 64, 32 gave the fastest step on both benchmark
# workloads without raising their peak memory.
_COLUMN_BLOCK = 32


def _column_blocks(cols):
    """Slices of at most _COLUMN_BLOCK consecutive columns covering `cols`."""
    for run in np.split(cols, np.nonzero(np.diff(cols) != 1)[0] + 1):
        for b in range(run[0], run[-1] + 1, _COLUMN_BLOCK):
            yield slice(b, min(b + _COLUMN_BLOCK, run[-1] + 1))


def _sweep_block(block, speeds, dt, plan: SweepPlan, bc, force_slow):
    """Sweep a C-contiguous (n_cols, n_dofs) block of x columns in place.

    A group without shared cells multiplies a view of its rows.  Any other
    group fills a working block from its slabs and its shared entries,
    multiplies it, and stores the results back to the same places.
    """
    n_cols = block.shape[0]
    o = plan.basis.n_nodes
    n_tl = plan.prolong.shape[1]
    lm = _level_matrices(plan.basis, speeds, dt, plan.base_width, plan.n_levels)
    entries = prolong_shared(block, plan)
    for g in plan.groups:
        op = _pencil_operators(lm, speeds * dt, g, plan, bc, force_slow)
        shape = (n_cols, g.n_cells * o, g.n_lines)
        if not g.entries.size:
            block[:, g.rows] = (op @ block[:, g.rows].reshape(shape)).reshape(n_cols, -1)
            continue
        work = np.empty(shape)
        slots = work.reshape(n_cols, g.n_cells, o, -1, n_tl)
        for cells, pencils, rows, slab in g.slabs:
            slots[:, cells, :, pencils] = block[:, rows].reshape((n_cols,) + slab)
        slots[:, g.entry_cells, :, g.entry_pencils] = entries[g.entries].transpose(0, 2, 3, 1)
        out = (op @ work).reshape(slots.shape)
        for cells, pencils, rows, slab in g.slabs:
            block[:, rows] = out[:, cells, :, pencils].reshape(n_cols, -1)
        entries[g.entries] = out[:, g.entry_cells, :, g.entry_pencils].transpose(0, 3, 1, 2)
    restrict_shared(block, entries, plan)


def advect_velocity(f, speeds, dt, plan: SweepPlan, bc: str = ABSORBING,
                    force_slow: bool = False):
    """Advect every spatial column of the field along the plan's direction.

    `f` is float64, shaped (n_velocity_dofs, n_x_dofs) with rows in the
    plan's order, in any memory order; column ix moves with speed
    speeds[ix] of the 1-D `speeds`.  Columns with exactly zero speed are
    skipped, leaving their bits untouched.  The moving columns go in blocks
    of consecutive ones, each a C-contiguous (n_cols, n_dofs) block of f.T:
    a view when f.T is C-contiguous, else a copy stored back afterwards,
    so every memory order runs the same products.  Every pencil group
    assembles one operator per column and applies it to all of its lines
    with one batched product.  Updates f in place and returns it.
    """
    check_bc(bc)
    if getattr(f, "dtype", None) != np.float64:
        raise SweepError(f"f must be a float64 array, got dtype {getattr(f, 'dtype', None)}")
    speeds = np.asarray(speeds, dtype=float)
    if speeds.ndim != 1:
        raise SweepError(f"speeds must be 1-D with f.shape[1] entries, got shape {speeds.shape}")
    if f.shape != (plan.n_dofs, speeds.size):
        raise SweepError(
            f"field shaped {f.shape}, expected ({plan.n_dofs}, {speeds.size})"
        )
    cols = np.nonzero(speeds != 0.0)[0]
    if cols.size == 0:
        return f
    ft = f.T
    for cols in _column_blocks(cols):
        block = np.ascontiguousarray(ft[cols])  # a view of f when f.T is C-contiguous
        _sweep_block(block, speeds[cols], dt, plan, bc, force_slow)
        if not ft.flags.c_contiguous:
            ft[cols] = block
    return f
