"""Spatial side of the solver: periodic DG x-grid, x-advection, Poisson solve.

The x-advection reuses the uniform-grid SLDG update with one precomputed
`Shift` per distinct velocity-DOF speed and step length (speeds never
change, so the shifts are built once before the time loop).  Each group's
rows update as runs of consecutive equal-speed rows, one contiguous block
of the x-major field per run; the runs of one x-step share one rolled
scratch.  The x-step is linear and moves every row of a group alike, so
the sums of a group's rows (`group_sums`) move by the group's own shift
(`advect_sums`): the charge density after an x-step comes from sums
taken before it.  The Poisson equation is discretized with continuous finite
elements of the same degree on the same cells and solved directly with a
zero-mean constraint to fix the periodic null space.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .basis import DGBasis
from .sldg1d import Shift, apply_update, cell_windows, shift_matrices


class XGrid:
    """Uniform periodic 1D DG grid of n_cells cells and degree `degree`.

    DG nodes at cell interfaces are duplicated; dof ix = cell*(p+1) + node.
    """

    def __init__(self, n_cells: int, degree: int, length: float):
        if isinstance(n_cells, bool) or not isinstance(n_cells, (int, np.integer)):
            raise ValueError(f"n_cells must be an integer, got {n_cells!r}")
        if n_cells < 4:
            raise ValueError(f"need at least 4 x-cells, got {n_cells}")
        if not isinstance(length, numbers.Real) or not 0 < length < np.inf:
            raise ValueError(f"domain length must be positive and finite, got {length!r}")
        self.n_cells = int(n_cells)
        self.length = float(length)
        self.basis = DGBasis(degree)
        self.degree = self.basis.degree
        self.h = self.length / self.n_cells
        lowers = np.arange(self.n_cells) * self.h
        self.node_coords = lowers[:, None] + 0.5 * (self.basis.nodes + 1.0) * self.h
        self.dof_coords = self.node_coords.ravel()
        self.dof_weights = np.tile(0.5 * self.h * self.basis.weights, self.n_cells)

    @property
    def n_dofs(self) -> int:
        return self.n_cells * (self.degree + 1)


@dataclass(frozen=True)
class _SpeedGroup:
    rows: np.ndarray
    runs: tuple               # slices of consecutive rows covering `rows`
    decomp: Shift             # perfbench/spans.plan_counts reads it by this name
    pair: np.ndarray          # [neighbor | same], the operator of apply_update

    @property
    def moving(self) -> bool:
        return bool(self.decomp.n_shift != 0 or self.decomp.frac != 0.0)


@dataclass(frozen=True)
class XAdvectionPlan:
    """Velocity-DOF rows grouped by advection speed, with their matrices.

    Each group's rows go as runs of consecutive rows: a run is one
    contiguous block of every x DOF's velocity values when f is stored
    x-major.  `run_lengths` holds the distinct lengths of the moving
    groups' runs, ascending.  `speeds` holds each group's speed.  For
    `advect_sums`, `sources[(g, j), i]` is the flat index, into the groups'
    sums shaped (n_groups, n_x_dofs), of entry j of destination cell i's
    (neighbor, same) source window in group g, and `pairs[:, (g, j)]` is
    column j of group g's pair.
    """

    n_cells: int
    groups: tuple
    run_lengths: tuple
    speeds: np.ndarray
    sources: np.ndarray
    pairs: np.ndarray


def _positions_by_key(keys) -> list:
    """Ascending positions of each key 0, 1, ... in the integer array `keys`."""
    return np.split(np.argsort(keys, kind="stable"), np.cumsum(np.bincount(keys))[:-1])


def precompute_x_matrices(xgrid: XGrid, speeds, dt: float) -> XAdvectionPlan:
    """One `Shift` per distinct speed, for all distinct speeds in one batch.

    Consecutive rows of equal speed form a run; the runs of each distinct
    speed, in row order, form its group, which shares its shift.  Zero-speed
    rows get the exact identity and are skipped when the plan is applied.
    """
    speeds = np.asarray(speeds, dtype=float)
    if not np.isfinite(speeds).all():
        raise ValueError("advection speeds must be finite")
    starts = np.flatnonzero(np.diff(speeds, prepend=np.nan) != 0.0)
    stops = np.append(starts[1:], speeds.size)
    uniq, speed_of = np.unique(speeds[starts], return_inverse=True)
    rows = _positions_by_key(np.repeat(speed_of, stops - starts))
    runs = _positions_by_key(speed_of)
    shift = shift_matrices(xgrid.basis, uniq, dt, xgrid.h)
    pair = np.concatenate([shift.neighbor, shift.same], axis=-1)
    groups = tuple(
        _SpeedGroup(r, tuple(slice(int(starts[k]), int(stops[k])) for k in ks), shift[u], pair[u])
        for u, (r, ks) in enumerate(zip(rows, runs))
    )
    lengths = {r.stop - r.start for g in groups if g.moving for r in g.runs}
    n, o = xgrid.n_cells, xgrid.basis.n_nodes
    first = (-shift.n_shift - 1) % n  # each group's neighbor source of cell 0
    # (groups, 2(p+1), n) offsets into a group's sums, each below 2 n (p+1)
    window = (first[:, None] * o + np.arange(2 * o))[:, :, None] + o * np.arange(n)
    wrap = np.arange(2 * n * o) % (n * o)
    sources = (wrap[window] + n * o * np.arange(uniq.size)[:, None, None]).reshape(-1, n)
    return XAdvectionPlan(n, groups, tuple(sorted(lengths)), uniq, sources,
                          pair.transpose(1, 0, 2).reshape(o, -1))


def advect_x(f, plan: XAdvectionPlan):
    """Apply the periodic SLDG x-update to every velocity DOF row of f.

    `f` is shaped (n_velocity_dofs, n_x_dofs), in any memory order.  Each
    run of equal-speed rows updates in place as one (n_cells, p+1, rows)
    block of f.T; zero-speed rows keep their bits.  The runs share one
    scratch, sized by the longest run and freed on return, with one window
    view per distinct run length.  Updates f in place and returns it.
    """
    if not plan.run_lengths:
        return f
    n = plan.n_cells
    o = f.shape[1] // n
    ext_rows = (n + 1) * o
    scratch = np.empty(ext_rows * plan.run_lengths[-1], f.dtype)
    windows = {m: cell_windows(scratch[: ext_rows * m].reshape(n + 1, o, m))
               for m in plan.run_lengths}
    ft = f.T
    for g in plan.groups:
        if g.moving:
            for run in g.runs:
                m = run.stop - run.start
                apply_update(ft[:, run].reshape(n, o, m), g.decomp, windows[m], g.pair)
    return f


def group_sums(f, plan: XAdvectionPlan, weights) -> np.ndarray:
    """Sums of each speed group's rows of f, one per row of `weights`.

    `f` is shaped (n_velocity_dofs, n_x_dofs), in any memory order, and
    `weights` (n_weights, n_velocity_dofs).  Returns (n_groups, n_weights,
    n_x_dofs): one (n_weights, m) @ (m, n_x_dofs) product per run of m rows.
    With the velocity quadrature weights, the groups' sums add up to the
    charge density.
    """
    sums = np.empty((len(plan.groups), len(weights), f.shape[1]))
    for g, out in zip(plan.groups, sums):
        first, *rest = g.runs
        np.matmul(weights[:, first], f[first], out=out)
        for run in rest:
            out += weights[:, run] @ f[run]
    return sums


def advect_sums(sums, plan: XAdvectionPlan) -> np.ndarray:
    """The x-step of every group's sum, summed over the groups.

    `sums` is shaped (n_groups, n_x_dofs), one weighted sum of each group's
    rows (`group_sums`).  Every row of a group moves by the group's shift,
    so this equals the same weighted sum of the x-stepped f up to
    round-off.  One gather and one product move all groups at once.
    """
    return (plan.pairs @ sums.ravel()[plan.sources]).T.ravel()


class PoissonSolver:
    """Direct periodic Poisson solve -phi'' = rho - mean(rho) on continuous FE.

    The FE space shares the grid's cells and degree but single-values the
    interface nodes (n_cells * degree unknowns).  The singular periodic
    stiffness matrix is augmented with the zero-mean constraint and
    factorized once; each step is a pair of triangular solves.
    """

    def __init__(self, xgrid: XGrid):
        self.xgrid = xgrid
        basis = xgrid.basis
        p = xgrid.degree
        n_nodes = xgrid.n_cells * p
        self.n_nodes = n_nodes
        cells = np.arange(xgrid.n_cells)
        self.conn = (cells[:, None] * p + np.arange(p + 1)[None, :]) % n_nodes

        # Stiffness integrand has degree 2p-2: the GLL rule is exact.
        local = (2.0 / xgrid.h) * basis.diff.T @ (basis.weights[:, None] * basis.diff)
        k = np.zeros((n_nodes, n_nodes))
        np.add.at(k, (self.conn[:, :, None], self.conn[:, None, :]), local)

        lumped = np.zeros(n_nodes)
        np.add.at(lumped, self.conn.ravel(),
                  np.tile(0.5 * xgrid.h * basis.weights, xgrid.n_cells))

        aug = np.zeros((n_nodes + 1, n_nodes + 1))
        aug[:n_nodes, :n_nodes] = k
        aug[:n_nodes, n_nodes] = lumped
        aug[n_nodes, :n_nodes] = lumped
        self._lu = lu_factor(aug)

    def rhs(self, rho):
        """Load vector of rho - mean(rho), assembled with GLL quadrature."""
        rho = np.asarray(rho, dtype=float)
        rho_bar = (self.xgrid.dof_weights @ rho) / self.xgrid.length
        contrib = self.xgrid.dof_weights * (rho - rho_bar)
        b = np.zeros(self.n_nodes)
        np.add.at(b, self.conn.ravel(), contrib)
        return b

    def solve(self, rho):
        """Mean-zero potential at the FE nodes for charge density rho."""
        b = np.zeros(self.n_nodes + 1)
        b[: self.n_nodes] = self.rhs(rho)
        # Non-finite input propagates to the field, where Simulation.step
        # stops the run with a step index instead of a bare linear-algebra error.
        sol = lu_solve(self._lu, b, check_finite=False)
        return sol[: self.n_nodes]

    def electric_field(self, phi):
        """E = -phi' sampled at the DG GLL nodes, one value per x DOF.

        phi is continuous but phi' may jump at cell interfaces; each DG DOF
        takes the derivative from its own element.
        """
        xg = self.xgrid
        phi_loc = phi[self.conn]
        e = -(2.0 / xg.h) * phi_loc @ xg.basis.diff.T
        return e.ravel()


def field_energy(e_field, xgrid: XGrid) -> float:
    """Electric field energy, one half the GLL quadrature of E^2 over x."""
    e = np.asarray(e_field, dtype=float)
    return 0.5 * float(xgrid.dof_weights @ (e * e))
