"""Hybrid fast/slow SLDG sweep over one velocity direction of an AMR mesh.

The sweep assembles, per pencil group and moving column, one dense linear
operator on a pencil line, for all of a sweep's moving columns in one
batch, then applies each column's operator to all of the group's lines,
one batched product per block of columns.  A cell whose foot interval
reads only cells of its own level, with every cell between them and
itself at that level too, takes its level's precomputed overlap pair at
index offsets (the cost of the uniform-grid method); the other cells,
those whose foot crosses a refinement boundary, take generalized overlap
blocks against every source cell that intersects the foot interval.  A
coarse cell lies in several pencils only when cells along its line are
finer (see `pencil`).  It enters each of them prolonged to the GLL nodes
of that pencil's transverse rectangle; its pencil results are
L2-projected back onto its transverse basis and summed (weighted
accumulation).  The restrictions sum to the identity on the
prolongations, so mass and every transverse moment of degree <= p are
preserved, and the transfers commute with a pencil's operator.

The plan also fixes the row order of the velocity DOFs: each group's rows
run by sweep position, then by line, so for every x column a group whose
cells lie in no other pencil is a contiguous (positions, lines) matrix
that the operator multiplies in place.  Shared cells' rows come last, in
classes of equal extent along the sweep axis, node-major, cells in
Z-order; a group with shared cells orders its pencils in Z-order too, so
each run of a class's cells, each in k consecutive pencils of the group,
is prolonged straight from f into the group's working block and
restricted straight back with one batched product each.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DGBasis
from .pencil import PencilSet, extract_pencils
from .sldg1d import (ABSORBING, PERIODIC, Shift, check_bc, index_runs, overlap_blocks,
                     shift_matrices)
from .sldg1d import apply_update  # noqa: F401 - the traced benchmark wraps vsweep.apply_update
from .tensor import TensorPermutation, build_permutation
from .vmesh import VelocityMesh


class SweepError(RuntimeError):
    pass


def classify_conforming(levels) -> tuple[np.ndarray, np.ndarray]:
    """Same-level reach of each cell of a pencil: (before, after).

    `levels` are the pencil's cell levels in sweep order.  before[k]
    (after[k]) counts the consecutive cells before (after) cell k that
    share its level.  The count wraps at the pencil ends, so one plan
    serves both boundary modes: periodic sweeps read the wrapped
    neighbors, and absorbing sweeps zero every source outside the pencil.
    It is capped at n-1, so a fast cell's sources lie within one lap of
    it, and a one-cell pencil, whose cell a periodic shift reads as both
    sources, has reach 0 on both sides.  A destination cell s with integer
    shift n at its level reads source cells s-n and s-n-1; they and every
    cell between them and s share its level exactly when before > n
    (n >= 0) or after >= -n (n < 0), and there index arithmetic equals
    coordinate arithmetic (`fast_cells`).
    """
    n = len(levels)
    k = np.arange(n)
    starts = np.flatnonzero(levels != np.roll(levels, 1))  # cells that begin a run
    if not starts.size:
        full = np.full(n, n - 1)
        return full, full.copy()
    run = np.searchsorted(starts, k, side="right") - 1  # -1: the run that wraps the end
    return (k - starts[run]) % n, (starts[(run + 1) % len(starts)] - 1 - k) % n


def fast_cells(before, after, n_shift) -> np.ndarray:
    """Cells whose sources at integer shift n_shift lie within their same-level reach.

    `before` and `after` are the reach from `classify_conforming`; the
    arrays broadcast against each other.
    """
    return np.where(n_shift >= 0, before > n_shift, after >= -n_shift)


def precompute_level_matrices(basis: DGBasis, speed, dt: float,
                              base_width: float, n_levels: int) -> Shift:
    """Shifts and overlap matrices indexed [level, speed], levels 0..n_levels-1.

    Each level's matrices serve every conforming cell at that level, at the
    cost of a uniform grid.  Level widths halve per level, so the speeds,
    scaled by 2**level (exactly), are shifted against the base width.
    """
    return shift_matrices(basis, np.multiply.outer(2.0 ** np.arange(n_levels), speed), dt,
                          base_width)


# The column sweep calls this under a private name, so that wrapping the
# public single-speed entry point (as perfbench/spans.py does) sees only
# its direct callers.
_level_matrices = precompute_level_matrices


def _pencil_operators(lm: Shift, disp, group: _PencilGroup, plan: SweepPlan,
                      bc, force_slow: bool) -> np.ndarray:
    """Dense SLDG update operators of one pencil group, one per speed.

    `lm` holds the level matrices of the speeds and `disp` their
    displacements speed*dt.  Returns (n_speeds, n*(p+1), n*(p+1)) operators
    acting on a line's values in sweep order.  A destination cell s with
    integer shift n at its level whose sources s-n and s-n-1 lie within its
    same-level reach (`fast_cells`) takes its level's same/neighbor pair at
    index offsets; every other cell (all of them with `force_slow`) sums
    generalized overlap blocks against the source cells its foot interval
    meets.  An absorbing foot meets only the pencil's cells, which tile
    [-R, R], so it reads zero outside them.  A periodic foot is moved by a
    multiple of the length 2R into [-R, R) and then also meets the image
    cells, the pencil's cells shifted by 2R; an image's block goes to its
    cell, as in `sldg1d.apply_update`.
    """
    basis = plan.basis
    lowers, widths, levels = group.lowers, group.widths, group.levels
    o = basis.n_nodes
    n = group.n_cells
    n_cols = disp.size
    shift = lm.n_shift[levels].T
    fast = fast_cells(group.before, group.after, shift) & (not force_slow)
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
        foot_lo, de = lowers[s] - disp[j], disp[j]
        foot_hi = foot_lo + widths[s]
        src_lo, src_w = lowers, widths
        if bc == PERIODIC:
            span = 2.0 * plan.radius
            k = np.floor((foot_lo + plan.radius) / span) * span
            foot_lo, foot_hi, de = foot_lo - k, foot_hi - k, de + k
            src_lo, src_w = np.concatenate([lowers, lowers + span]), np.tile(widths, 2)
        vl = np.maximum(foot_lo[:, None], src_lo)
        vr = np.minimum(foot_hi[:, None], src_lo + src_w)
        r, c = np.nonzero(vr - vl > 1e-14 * widths[s][:, None])
        raw = overlap_blocks(basis, vl[r, c], vr[r, c], lowers[s[r]], widths[s[r]],
                             src_lo[c], src_w[c], de[r])
        blocks = basis.mass_inv @ raw
        # A periodic foot wider than the pencil's other cells together meets a
        # cell and that cell's image: on a one-cell pencil always, on a longer
        # pencil for a wide cell.  Each source cell is met at most once in the
        # pencil and once as an image, so the image blocks add onto the
        # in-pencil ones; one assignment for all would keep one block.
        own = c < n
        op[j[r[own]], s[r[own]], :, c[own]] = blocks[own]
        img = ~own
        op[j[r[img]], s[r[img]], :, c[img] - n] += blocks[img]
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
    lines) per x column.  Shared positions are filled and emptied by the
    group's transfer slots.  `before` and `after` are each cell's
    same-level reach (`classify_conforming`), which picks the cells that
    take the fast path at each shift.
    """

    lowers: np.ndarray
    widths: np.ndarray
    levels: np.ndarray
    before: np.ndarray
    after: np.ndarray
    n_lines: int
    n_cells: int
    rows: slice               # all of the group's owned rows
    runs: tuple
    slots: tuple              # _Slot, in restriction order

    @property
    def conforming(self) -> np.ndarray:
        """Cells that take the fast path at integer shifts 0 and -1.

        `perfbench/spans.plan_counts` reads these as the fast cells.
        """
        return fast_cells(self.before, self.after, 0) & fast_cells(self.before, self.after, -1)


@dataclass(frozen=True)
class _Slot:
    """Shared cells at one position of a group, each in k consecutive pencils.

    The cells are `cells` of the class stored in f's rows `rows`, shaped
    (p+1, class cells, n_tl) per x column.  Prolonged to the GLL nodes of
    their pencils' transverse rectangles, they fill the working rows
    `work` on the lines `lines`.  The L2 projection of the results back
    onto their transverse basis overwrites their values when `first` (no
    earlier slot holds them) and adds to them otherwise.
    """

    work: slice
    lines: slice
    rows: slice
    cells: slice
    prolong: np.ndarray       # (cells, 1, n_tl, k*n_tl): the k prolongations, transposed
    restrict: np.ndarray      # (cells, 1, k*n_tl, n_tl): the k restrictions, transposed
    first: bool


@dataclass
class SweepPlan:
    """Row order of the velocity DOFs and the sweep layout for one direction.

    Row r of f holds cell-local DOF order[r] (cell*(p+1)^dim + local id).
    Each pencil group owns a range of rows, its runs, in which every run
    of lines at one sweep position is contiguous, so equal-speed rows sit
    together and a group with no shared cell sweeps its rows in place.
    The rows of cells lying in several pencils (shared cells) come last,
    in classes of equal extent along the sweep axis (equal speeds at each
    node), each shaped (p+1, cells, n_tl) with its cells in Z-order.  The
    pencils of a group with shared cells are in Z-order too, so its
    transfer slots (`_Slot`) move runs of a class's cells between f and
    the group's working block.
    """

    direction: int
    basis: DGBasis
    perm: TensorPermutation   # tensor layout of the cell-local DOFs
    radius: float
    base_width: float
    n_levels: int
    n_dofs: int
    n_tl: int                 # transverse lines per pencil
    order: np.ndarray
    groups: list


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


def _z_order(lo, radius, finest):
    """Z-order (Morton) codes of lower corners `lo`, shaped (n, axes), on the grid
    of spacing `finest` from -radius.  On a forest of octrees a cell's box is an
    aligned power-of-two square of that grid: the corners inside it have
    consecutive codes."""
    ij = np.round((lo + radius) / finest).astype(np.int64)[:, :, None]
    n_axes, bit = ij.shape[1], np.arange(int(ij.max(initial=0)).bit_length())
    return (((ij >> bit) & 1) << (bit * n_axes + np.arange(n_axes)[:, None])).sum(axis=(1, 2))


def build_sweep_plan(mesh: VelocityMesh, basis: DGBasis,
                     pencils: PencilSet | None = None) -> SweepPlan:
    """Plan the sweep of the mesh along the direction of its pencils.

    The pencils default to the mesh's direction-0 pencils.  Pencils with
    identical cell layout (same coordinates, widths, levels) and the same
    sharing mask share their update operator and same-level reach for any
    speed, so their transverse lines are batched into one matrix product
    per block of swept columns.  Cells lying in several pencils get
    per-entry transverse prolongation and restriction matrices (Kronecker
    products of the 1D ones), gathered into transfer slots.  Raises
    SweepError unless the pencil weights of every cell sum to one.
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

    # Transfers of the shared entries (a shared cell in one of its pencils),
    # transposed: line t' of the cell to line t of the pencil at [t', t].
    count = np.bincount(pset.cell_ids, minlength=mesh.n_cells)
    is_shared = count[pset.cell_ids] > 1
    shared = np.flatnonzero(is_shared)
    cells = pset.cell_ids[shared]
    prolong = np.ones((len(shared), n_tl, n_tl))
    restrict = np.ones((len(shared), n_tl, n_tl))
    tol = 1e-9 * mesh.base_width
    pencil_of = np.repeat(np.arange(pset.n_pencils), np.diff(pset.offsets))[shared]
    t_dims = [t for t in range(mesh.dim) if t != d]
    for a, t in enumerate(t_dims):
        p1, r1 = _transfer_1d(basis, pset.t_lowers[pencil_of, a], pset.t_widths[pencil_of, a],
                              mesh.lo[cells, t], mesh.width[cells, t], tol)
        # Each line's node on axis t, as the tensor layout places it.
        node = perm.forward[lines[:, 0], t]
        prolong *= p1[:, node, node[:, None]]
        restrict *= r1[:, node, node[:, None]]

    # Shared cells' rows, after every group's runs: classes of equal extent
    # along the sweep axis, each shaped (p+1, cells, n_tl) with its cells in Z-order.
    finest = mesh.base_width / 2.0 ** mesh.levels.max()
    cells = np.flatnonzero(count > 1)
    cells = cells[np.lexsort((_z_order(mesh.lo[cells][:, t_dims], mesh.radius, finest),
                              mesh.width[cells, d], mesh.lo[cells, d]))]
    lo, width = mesh.lo[cells, d], mesh.width[cells, d]
    starts = np.append(True, (lo[1:] != lo[:-1]) | (width[1:] != width[:-1]))
    bounds = np.append(np.flatnonzero(starts), len(cells))
    cls = np.zeros(mesh.n_cells, dtype=np.int64)      # class of each shared cell
    cls[cells] = np.cumsum(starts) - 1
    at = np.zeros(mesh.n_cells, dtype=np.int64)       # its index in the class
    at[cells] = np.arange(len(cells)) - bounds[cls[cells]]
    class_rows = n_dofs + (bounds - len(cells)) * n_local  # each class's first row
    seen = np.zeros(mesh.n_cells, dtype=bool)         # restricted by an earlier slot

    grouped: dict = {}
    for q in range(pset.n_pencils):
        sl = pset.pencil_slice(q)
        key = (pset.levels[sl].tobytes(), pset.lowers[sl].tobytes(),
               pset.widths[sl].tobytes(), is_shared[sl].tobytes())
        grouped.setdefault(key, []).append(q)

    # Consecutive parts of the row order: cell-local DOF ids shaped
    # (cells, p+1, pencils, n_tl) per run.
    order_parts = []
    n_rows = 0
    groups = []
    for qs in grouped.values():
        qs = np.array(qs)
        sl0 = pset.pencil_slice(qs[0])
        n_cells = sl0.stop - sl0.start
        mixed = is_shared[sl0]
        if mixed.any():
            qs = qs[np.argsort(_z_order(pset.t_lowers[qs], mesh.radius, finest), kind="stable")]
        entries = pset.offsets[qs][:, None] + np.arange(n_cells)
        group_start = n_rows
        runs = []
        for c in index_runs(np.flatnonzero(~mixed)):
            part = pset.cell_ids[entries[:, c]].T[:, None, :, None] * n_local + lines.T[:, None]
            order_parts.append(part.ravel())
            runs.append((slice(c.start * o, c.stop * o), slice(n_rows, n_rows + part.size)))
            n_rows += part.size
        slots = []
        if mixed.any():
            # Runs of consecutive pencils with one cell, shared position after
            # shared position.  A slot takes consecutive runs of one length,
            # class (so one position) and `first` whose cells follow one another
            # in their class.
            positions, ent = np.flatnonzero(mixed), entries[:, mixed].T.ravel()
            ids = pset.cell_ids[ent]
            cuts = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))
            k = np.append(cuts[1:], len(ids)) - cuts
            c = ids[cuts]
            by_cell = np.argsort(c, kind="stable")
            first = ~seen[c]
            first[by_cell[1:][c[by_cell[1:]] == c[by_cell[:-1]]]] = False  # a cell's later runs
            seen[c] = True
            key = np.stack([k, cls[c], first, at[c] - np.arange(len(c))])
            new = np.flatnonzero(np.append(True, (key[:, 1:] != key[:, :-1]).any(axis=0)))
            for a, b in zip(new, np.append(new[1:], len(c))):
                e = np.searchsorted(shared, ent[cuts[a]:cuts[b - 1] + k[b - 1]])
                s = int(positions[cuts[a] // len(qs)])
                q0, n_c = cuts[a] % len(qs), b - a
                slots.append(_Slot(
                    work=slice(s * o, (s + 1) * o),
                    lines=slice(int(q0) * n_tl, int(q0 + len(e)) * n_tl),
                    rows=slice(int(class_rows[cls[c[a]]]), int(class_rows[cls[c[a]] + 1])),
                    cells=slice(int(at[c[a]]), int(at[c[a]]) + n_c),
                    prolong=prolong[e].reshape(n_c, -1, n_tl, n_tl).transpose(0, 2, 1, 3)
                    .reshape(n_c, 1, n_tl, -1),
                    restrict=restrict[e].reshape(n_c, 1, -1, n_tl),
                    first=bool(first[a]),
                ))
        before, after = classify_conforming(pset.levels[sl0])
        groups.append(
            _PencilGroup(
                lowers=pset.lowers[sl0].copy(),
                widths=pset.widths[sl0].copy(),
                levels=pset.levels[sl0].copy(),
                before=before,
                after=after,
                n_lines=len(qs) * n_tl,
                n_cells=n_cells,
                rows=slice(group_start, n_rows),
                runs=tuple(runs),
                slots=tuple(slots),
            )
        )
    for a, b in zip(bounds[:-1], bounds[1:]):
        order_parts.append((cells[None, a:b, None] * n_local + lines.T[:, None, :]).ravel())

    return SweepPlan(
        direction=d,
        basis=basis,
        perm=perm,
        radius=mesh.radius,
        base_width=mesh.base_width,
        n_levels=int(mesh.levels.max()) + 1,
        n_dofs=n_dofs,
        n_tl=n_tl,
        order=np.concatenate(order_parts),
        groups=groups,
    )


# Columns are swept this many at a time.  The operators are assembled once
# per sweep, so the block size sets only the working set: the block of f,
# its products and the mixed groups' working blocks.  A 32-column block of
# f is 2.0 MB on the q3-4-1 mesh and 3.5 MB on q5-4-0, as large as a 2 MB
# L2 cache or larger; 8 columns keep it well inside.  One sweep of the state after 3
# steps (ms, one BLAS thread on a 2-core Xeon VM, median of 7) at 4/8/16/32
# columns: q5-4-0 2.9-3.1/3.1/3.7-3.8/3.7-3.8, q3-4-1 with periodic v
# 4.8/4.5/4.8-4.9/5.2, q3-4-2 with periodic v 10.3-10.4/10.6/10.8/11.3.
_COLUMN_BLOCK = 8


def _column_blocks(cols):
    """Slices of at most _COLUMN_BLOCK consecutive columns covering `cols`."""
    for run in index_runs(cols):
        for b in range(run.start, run.stop, _COLUMN_BLOCK):
            yield slice(b, min(b + _COLUMN_BLOCK, run.stop))


def _sweep_block(block, ops, plan: SweepPlan):
    """Sweep a C-contiguous (n_cols, n_dofs) block of x columns in place.

    `ops` holds each group's operators for the block's columns.  A group
    without shared cells multiplies a view of its rows.  Any other group
    fills a working block from its runs and its slots' prolonged cells,
    writes each run's rows of the product straight into the run's rows of
    f, and multiplies each distinct shared position's rows into a small
    block from which its slots' restrictions go into the cells' rows.  A
    cell can feed several groups, so every slot prolongs before any slot
    restricts.
    """
    n_cols = block.shape[0]
    o, n_tl = plan.basis.n_nodes, plan.n_tl

    # Slot views shaped (cells, p+1, n_cols, n_tl) in block and (cells, p+1,
    # n_cols, k*n_tl) in a block of one sweep position's working rows: one
    # product per cell and node.
    def cells(s):
        return block[:, s.rows].reshape(n_cols, o, -1, n_tl)[:, :, s.cells].transpose(2, 1, 0, 3)

    def lines(at, s):
        return at[:, :, s.lines].reshape(n_cols, o, len(s.prolong), -1).transpose(2, 1, 0, 3)

    works = []
    for g in plan.groups:
        works.append(np.empty((n_cols, g.n_cells * o, g.n_lines)) if g.slots else None)
        for s in g.slots:
            np.matmul(cells(s), s.prolong, out=lines(works[-1][:, s.work], s))
    for g, op, work in zip(plan.groups, ops, works):
        if work is None:
            shape = (n_cols, g.n_cells * o, g.n_lines)
            block[:, g.rows] = (op @ block[:, g.rows].reshape(shape)).reshape(n_cols, -1)
            continue
        for positions, rows in g.runs:
            work[:, positions] = block[:, rows].reshape(n_cols, -1, g.n_lines)
        for positions, rows in g.runs:
            np.matmul(op[:, positions], work, out=block[:, rows].reshape(n_cols, -1, g.n_lines))
        at = {}  # the product's rows at each shared position
        for s in g.slots:
            out = at.get(s.work.start)
            if out is None:
                out = at[s.work.start] = op[:, s.work] @ work
            if s.first:
                np.matmul(lines(out, s), s.restrict, out=cells(s))
            else:
                cells(s)[...] += lines(out, s) @ s.restrict


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
