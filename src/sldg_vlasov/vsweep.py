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
    # An explicit copy: the transpose of a single line is already contiguous.
    f = values.reshape(-1, n * o).T.copy()
    advect_velocity(f, np.full(f.shape[1], float(speed)), dt, plan, bc, force_slow)
    return f.T.reshape(values.shape)


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
    rows: np.ndarray          # (n_cells*o^dim,) DOF ids of the cells, in line layout


@dataclass
class SweepPlan:
    """Static pack / sweep / write-back layout for one direction of a mesh.

    A velocity column is packed into a vector of n_packed entries: the
    column itself, followed by o^dim values per shared entry (an entry of a
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
    src_rows: np.ndarray      # (n_shared*o^dim,) DOF ids of each shared entry's cell
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

    prolong = np.ones((n_shared, n_tl, n_tl))
    restrict = np.ones((n_shared, n_tl, n_tl))
    tol = 1e-9 * mesh.base_width
    pencil_of = np.repeat(np.arange(pset.n_pencils), np.diff(pset.offsets))[shared]
    t_dims = [t for t in range(mesh.dim) if t != pset.direction]
    for a, t in enumerate(t_dims):
        p1, r1 = _transfer_1d(basis, pset.t_lowers[pencil_of, a], pset.t_widths[pencil_of, a],
                              mesh.lo[cells, t], mesh.width[cells, t], tol)
        # Each line's node on axis t, as the tensor layout places it.
        node = perm.forward[lines[:, 0], t]
        prolong *= p1[:, node[:, None], node]
        restrict *= r1[:, node[:, None], node]

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
    n_cols = block.shape[1]
    out = np.empty((plan.n_packed, n_cols))
    out[: plan.n_dofs] = block
    src = f[plan.src_rows, cols].reshape(n_shared, n_tl, plan.basis.n_nodes * n_cols)
    out[plan.n_dofs :] = (plan.prolong @ src).reshape(-1, n_cols)
    return out


def write_back(f, cols: slice, packed, plan: SweepPlan) -> None:
    """Store packed columns (as from pack_columns) into f[:, cols].

    Cells lying in one pencil are copied bit for bit; each shared cell
    receives the sum of its entries' restrictions, the L2 projection of its
    piecewise pencil results onto its transverse basis.
    """
    n_cols = packed.shape[1]
    n_shared, n_tl, _ = plan.prolong.shape
    f[:, cols] = packed[: plan.n_dofs]
    res = packed[plan.n_dofs :].reshape(n_shared, n_tl, plan.basis.n_nodes * n_cols)
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

    `f` is float64, shaped (n_velocity_dofs, n_x_dofs); column ix moves with
    speed speeds[ix] of the 1-D `speeds`.  Columns with exactly zero speed
    are skipped, leaving their bits untouched.  The moving columns go in
    blocks of consecutive ones: each block is packed, every pencil group
    assembles one operator per column and applies it to all of its lines
    with one batched product, and the block is written back.  Updates f in
    place and returns it.
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
    for block in _column_blocks(cols):
        packed = pack_columns(f, block, plan)
        lm = _level_matrices(plan.basis, speeds[block], dt, plan.base_width, plan.n_levels)
        for g in plan.groups:
            op = _pencil_operators(lm, speeds[block] * dt, g, plan, bc, force_slow)
            lines = packed[g.gather].transpose(2, 0, 1)
            packed[g.gather] = (lines @ op.transpose(0, 2, 1)).transpose(1, 2, 0)
        write_back(f, block, packed, plan)
    return f
