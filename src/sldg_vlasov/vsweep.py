"""Hybrid fast/slow SLDG sweep over one velocity direction of an AMR mesh.

The sweep assembles, per pencil group and moving column, one dense linear
operator on a pencil line, for all of a sweep's moving columns in one
batch, then applies each column's operator to all of the group's lines,
one batched product per block of columns.  Conforming cells take their
level's precomputed overlap pair at index offsets (the cost of the
uniform-grid method); nonconforming cells at refinement boundaries take
generalized overlap blocks against every source cell that intersects the
foot interval.  A coarse cell lies in several pencils only when cells
along its line are finer (see `pencil`).  It enters each of them
prolonged to the GLL nodes of that pencil's transverse rectangle; its
pencil results are L2-projected back onto its transverse basis and
summed (weighted accumulation).  The restrictions of a cell's entries
sum to the identity on its prolongations, so mass and every transverse
moment of degree <= p are preserved, and a pencil cut into congruent
pieces would sweep to the same result: the transfers commute with a
pencil's operator.

The plan also fixes the row order of the velocity DOFs: each group's rows
run by sweep position, then by line, so for every x column a group whose
cells lie in no other pencil is a contiguous (positions, lines) matrix
that the operator multiplies in place.  Sharing is part of a group's
layout: all of its pencils share the cells at the same positions.  Shared
cells keep one order, by pencil count, then extent along the sweep axis,
so each class of equal count and extent prolongs and restricts its cells
with one batched product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DGBasis
from .pencil import PencilSet, extract_pencils
from .sldg1d import (ABSORBING, PERIODIC, check_bc, decompose_shift, index_runs, overlap_blocks,
                     overlap_pair)
from .sldg1d import apply_update  # noqa: F401 - the traced benchmark wraps vsweep.apply_update
from .tensor import TensorPermutation, build_permutation
from .vmesh import VelocityMesh


class SweepError(RuntimeError):
    pass


CONFORMING_RADIUS = 2


def classify_conforming(levels) -> np.ndarray:
    """Flag each cell of a pencil whose neighbors within CONFORMING_RADIUS share its level.

    `levels` are the pencil's cell levels in sweep order.  A destination
    cell s with integer shift n reads source cells s-n and s-n-1, which
    together with every cell between them and s lie within s +-
    CONFORMING_RADIUS exactly when -CONFORMING_RADIUS <= n <=
    CONFORMING_RADIUS - 1; there index arithmetic equals coordinate
    arithmetic for a conforming cell, so the sweep takes its level's
    overlap pair (`_pencil_operators`).  The lookup wraps at the pencil
    ends, so one plan serves both boundary modes: periodic sweeps read the
    wrapped neighbors, and for absorbing sweeps the rule is only stricter
    than needed.  A one-cell pencil is nonconforming: a periodic shift
    reads its cell as both sources, which index arithmetic does not add up.
    """
    n = len(levels)
    offs = np.array([k for k in range(-CONFORMING_RADIUS, CONFORMING_RADIUS + 1) if k])
    same = levels[(np.arange(n)[:, None] + offs) % n] == levels[:, None]
    return (n > 1) & same.all(axis=1)


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
    plan = build_sweep_plan(mesh, basis)
    # The lines become x columns of an x-major copy; a 1V plan keeps the
    # cell-local row order.
    lines = values.reshape(-1, n * o).copy()
    advect_velocity(lines.T, np.full(len(lines), float(speed)), dt, plan, bc, force_slow)
    return lines.reshape(values.shape)


@dataclass
class _PencilGroup:
    """Pencils with identical cell layout and sharing mask, batched into one update.

    The group's working block has one row per sweep position k =
    cell*(p+1) + node and one column per line, line = pencil*n_tl + t.
    Every pencil of a group lies alone in the cells at the same positions
    (owned) and shares the cells at the others.  Owned positions go as
    runs of consecutive positions: a run (positions, rows) covers working
    rows `positions` and is stored in f at `rows`, shaped (cells, p+1,
    lines) per x column.  Shared positions hold shared entries, indexed
    into the sweep's entry buffer.
    """

    lowers: np.ndarray
    widths: np.ndarray
    levels: np.ndarray
    conforming: np.ndarray
    n_lines: int
    n_cells: int
    rows: slice               # all of the group's owned rows
    runs: tuple
    shared: np.ndarray        # (n_s,) cell positions of the shared entries ...
    entries: np.ndarray       # ... (n_s, pencils) their indices in the entry buffer


@dataclass(frozen=True)
class _SharedClass:
    """Shared cells lying in the same number k of pencils, with equal extent."""

    rows: slice               # their values, shaped (p+1, cells, n_tl) per x column
    entries: slice            # their shared entries, k consecutive ones per cell
    prolong: np.ndarray       # (cells, k, n_tl, n_tl) transverse prolongations
    restrict: np.ndarray      # (cells, n_tl, k*n_tl): the k entry restrictions side by side


@dataclass
class SweepPlan:
    """Row order of the velocity DOFs and the sweep layout for one direction.

    Row r of f holds cell-local DOF order[r] (cell*(p+1)^dim + local id).
    Each pencil group owns a range of rows, its runs, in which every run
    of lines at one sweep position is contiguous, so equal-speed rows sit
    together and a group with no shared cell sweeps its rows in place.
    The rows of cells lying in several pencils (shared cells) come last,
    ordered by pencil count, then extent along the sweep axis, then id,
    in classes of equal count and extent (equal speeds at each node).  A
    shared entry (a shared cell in one of its pencils) holds the cell's
    polynomial prolonged to the GLL nodes of that pencil's transverse
    rectangle; after the sweep, the entries of each shared cell are
    L2-projected back onto its transverse basis and summed.
    """

    direction: int
    basis: DGBasis
    perm: TensorPermutation   # tensor layout of the cell-local DOFs
    radius: float
    base_width: float
    n_levels: int
    n_dofs: int
    n_tl: int                 # transverse lines per pencil
    n_entries: int
    order: np.ndarray
    groups: list
    shared: tuple             # _SharedClass, in row and entry order


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


def build_sweep_plan(mesh: VelocityMesh, basis: DGBasis,
                     pencils: PencilSet | None = None) -> SweepPlan:
    """Plan the sweep of the mesh along the direction of its pencils.

    The pencils default to the mesh's direction-0 pencils.  Pencils with
    identical cell layout (same coordinates, widths, levels) and the same
    sharing mask share their update operator and conforming flags for any
    speed, so their transverse lines are batched into one matrix product
    per block of swept columns.  Cells lying in several pencils get
    per-entry transverse prolongation and restriction matrices (Kronecker
    products of the 1D ones).  Raises SweepError unless the pencil weights of every
    cell sum to one.
    """
    pset = extract_pencils(mesh, 0) if pencils is None else pencils
    perm = build_permutation(basis, mesh.dim)
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

    # Shared entries by pencil count, extent along the sweep axis, cell id
    # and pencil (lexsort is stable): a cell's entries follow one another.
    count = np.bincount(pset.cell_ids, minlength=mesh.n_cells)[pset.cell_ids]
    shared = np.nonzero(count > 1)[0]
    cells = pset.cell_ids[shared]
    shared = shared[np.lexsort((cells, mesh.width[cells, d], mesh.lo[cells, d], count[shared]))]
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

    grouped: dict = {}
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        key = (pset.levels[sl].tobytes(), pset.lowers[sl].tobytes(),
               pset.widths[sl].tobytes(), (slot[sl] >= 0).tobytes())
        grouped.setdefault(key, []).append(q)

    # Consecutive parts of the row order: cell-local DOF ids shaped
    # (cells, p+1, pencils, n_tl) per run, (p+1, cells, n_tl) per class.
    order_parts = []
    n_rows = 0
    groups = []
    for qs in grouped.values():
        sl0 = pset.pencil_slice(qs[0])
        n_cells = sl0.stop - sl0.start
        entries = pset.offsets[qs][:, None] + np.arange(n_cells)
        is_shared = slot[entries[0]] >= 0
        group_start = n_rows
        runs = []
        for c in index_runs(np.flatnonzero(~is_shared)):
            part = pset.cell_ids[entries[:, c]].T[:, None, :, None] * n_local + lines.T[:, None]
            order_parts.append(part.ravel())
            runs.append((slice(c.start * o, c.stop * o), slice(n_rows, n_rows + part.size)))
            n_rows += part.size
        positions = np.flatnonzero(is_shared)
        groups.append(
            _PencilGroup(
                lowers=pset.lowers[sl0].copy(),
                widths=pset.widths[sl0].copy(),
                levels=pset.levels[sl0].copy(),
                conforming=classify_conforming(pset.levels[sl0]),
                n_lines=len(qs) * n_tl,
                n_cells=n_cells,
                rows=slice(group_start, n_rows),
                runs=tuple(runs),
                shared=positions,
                entries=slot[entries[:, positions]].T,
            )
        )

    classes = []
    key = np.stack([count[shared], mesh.lo[cells, d], mesh.width[cells, d]], axis=1)
    first = np.ones(n_shared, dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    bounds = np.append(np.flatnonzero(first), n_shared)
    for a, b in zip(bounds[:-1], bounds[1:]):
        k = int(count[shared[a]])
        part = cells[None, a:b:k, None] * n_local + lines.T[:, None, :]
        order_parts.append(part.ravel())
        n_c = part.shape[1]
        classes.append(_SharedClass(
            rows=slice(n_rows, n_rows + part.size),
            entries=slice(int(a), int(b)),
            prolong=prolong[a:b].reshape(n_c, k, n_tl, n_tl),
            restrict=restrict[a:b].reshape(n_c, k, n_tl, n_tl)
            .transpose(0, 2, 1, 3).reshape(n_c, n_tl, k * n_tl),
        ))
        n_rows += part.size

    return SweepPlan(
        direction=d,
        basis=basis,
        perm=perm,
        radius=mesh.radius,
        base_width=mesh.base_width,
        n_levels=int(mesh.levels.max()) + 1,
        n_dofs=n_dofs,
        n_tl=n_tl,
        n_entries=n_shared,
        order=np.concatenate(order_parts),
        groups=groups,
        shared=tuple(classes),
    )


def prolong_shared(block, plan: SweepPlan) -> np.ndarray:
    """Shared entries of the block's columns, shaped (n_entries, n_tl, n_cols, p+1).

    `block` is a C-contiguous (n_cols, n_dofs) block of x columns in plan
    row order.  The prolongation runs once for the whole block: one batched
    product per class of shared cells, with the columns folded into the
    matrix width.
    """
    n_cols = block.shape[0]
    o = plan.basis.n_nodes
    n_tl = plan.n_tl
    entries = np.empty((plan.n_entries, n_tl, n_cols, o))
    for sc in plan.shared:
        n_c, k = sc.prolong.shape[:2]
        values = block[:, sc.rows].reshape(n_cols, o, n_c, n_tl).transpose(2, 3, 0, 1)
        np.matmul(sc.prolong, values.reshape(n_c, 1, n_tl, n_cols * o),
                  out=entries[sc.entries].reshape(n_c, k, n_tl, n_cols * o))
    return entries


def restrict_shared(block, entries, plan: SweepPlan) -> None:
    """Store each shared cell's restricted entries into its rows of `block`.

    Each shared cell receives the sum of its entries' restrictions, the L2
    projection of its piecewise pencil results onto its transverse basis.
    Rows of cells lying in one pencil are not touched.
    """
    _, n_tl, n_cols, o = entries.shape
    for sc in plan.shared:
        n_c, _, k_lines = sc.restrict.shape
        part = entries[sc.entries].reshape(n_c, k_lines, n_cols * o)
        block[:, sc.rows].reshape(n_cols, o, n_c, n_tl)[...] = (
            (sc.restrict @ part).reshape(n_c, n_tl, n_cols, o).transpose(2, 3, 0, 1))


# Columns are swept this many at a time: the transfer products run once per
# block with its columns folded into the matrix width, and the working
# arrays stay a few MB.  Of 8, 16, 32 and 64, 32 gave the fastest step on
# both benchmark workloads without raising their peak memory.
_COLUMN_BLOCK = 32


def _column_blocks(cols):
    """Slices of at most _COLUMN_BLOCK consecutive columns covering `cols`."""
    for run in index_runs(cols):
        for b in range(run.start, run.stop, _COLUMN_BLOCK):
            yield slice(b, min(b + _COLUMN_BLOCK, run.stop))


def _sweep_block(block, ops, plan: SweepPlan):
    """Sweep a C-contiguous (n_cols, n_dofs) block of x columns in place.

    `ops` holds each group's operators for the block's columns.  A group
    without shared cells multiplies a view of its rows.  Any other group
    fills a working block from its runs and its shared entries, multiplies
    it, and stores the results back to the same places.
    """
    n_cols = block.shape[0]
    o = plan.basis.n_nodes
    entries = prolong_shared(block, plan)
    for g, op in zip(plan.groups, ops):
        shape = (n_cols, g.n_cells * o, g.n_lines)
        if not g.shared.size:
            block[:, g.rows] = (op @ block[:, g.rows].reshape(shape)).reshape(n_cols, -1)
            continue
        work = np.empty(shape)
        for positions, rows in g.runs:
            work[:, positions] = block[:, rows].reshape(n_cols, -1, g.n_lines)
        slots = work.reshape(n_cols, g.n_cells, o, -1, plan.n_tl)
        slots[:, g.shared] = entries[g.entries].transpose(3, 0, 4, 1, 2)
        out = op @ work
        for positions, rows in g.runs:
            block[:, rows] = out[:, positions].reshape(n_cols, -1)
        entries[g.entries] = out.reshape(slots.shape)[:, g.shared].transpose(1, 3, 4, 0, 2)
    restrict_shared(block, entries, plan)


def advect_velocity(f, speeds, dt, plan: SweepPlan, bc: str = ABSORBING,
                    force_slow: bool = False):
    """Advect every spatial column of the field along the plan's direction.

    `f` is float64, shaped (n_velocity_dofs, n_x_dofs) with rows in the
    plan's order, in any memory order; column ix moves with speed
    speeds[ix] of the 1-D `speeds`, which must be finite.  Columns with
    exactly zero speed are skipped, leaving their bits untouched.  Every
    pencil group first assembles one operator per moving column, all in
    one batch, so a bad speed or step raises before f is touched.  The
    moving columns then go in blocks of consecutive ones, each a
    C-contiguous (n_cols, n_dofs) block of f.T: a view when f.T is
    C-contiguous, else a copy stored back afterwards, so every memory order
    runs the same products.  Each group applies its block's operators to
    all of its lines with one batched product.  Updates f in place and
    returns it.
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
    bad = np.flatnonzero(~np.isfinite(speeds))
    if bad.size:
        raise SweepError(f"speeds must be finite, got {speeds[bad[0]]} in column {bad[0]}")
    moving = np.nonzero(speeds != 0.0)[0]
    if moving.size == 0:
        return f
    v = speeds[moving]
    lm = _level_matrices(plan.basis, v, dt, plan.base_width, plan.n_levels)
    ops = [_pencil_operators(lm, v * dt, g, plan, bc, force_slow) for g in plan.groups]
    ft = f.T
    k = 0  # moving columns swept so far: the blocks' offset into ops
    for cols in _column_blocks(moving):
        n = cols.stop - cols.start
        block = np.ascontiguousarray(ft[cols])  # a view of f when f.T is C-contiguous
        _sweep_block(block, [op[k:k + n] for op in ops], plan)
        if not ft.flags.c_contiguous:
            ft[cols] = block
        k += n
    return f
