"""Spatial side of the solver: periodic DG x-grid, x-advection, Poisson solve.

The x-advection reuses the uniform-grid SLDG update with one precomputed
`Shift` per distinct velocity-DOF speed and step length (speeds never
change, so the shifts are built once before the time loop).  Each group's
rows update as runs of consecutive equal-speed rows, one contiguous block
of the x-major field per run.  The Poisson equation is discretized with
continuous finite elements of the same degree on the same cells and solved
directly with a zero-mean constraint to fix the periodic null space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .basis import DGBasis
from .sldg1d import Shift, apply_update, shift_matrices


class XGrid:
    """Uniform periodic 1D DG grid of n_cells cells and degree `degree`.

    DG nodes at cell interfaces are duplicated; dof ix = cell*(p+1) + node.
    """

    def __init__(self, n_cells: int, degree: int, length: float):
        if isinstance(n_cells, bool) or not isinstance(n_cells, (int, np.integer)):
            raise ValueError(f"n_cells must be an integer, got {n_cells!r}")
        if n_cells < 4:
            raise ValueError(f"need at least 4 x-cells, got {n_cells}")
        if not 0 < length < np.inf:
            raise ValueError(f"domain length must be positive and finite, got {length}")
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


@dataclass(frozen=True)
class XAdvectionPlan:
    """Velocity-DOF rows grouped by advection speed, with their matrices.

    Each group's rows go as runs of consecutive rows: a run is one
    contiguous block of every x DOF's velocity values when f is stored
    x-major.
    """

    n_cells: int
    groups: tuple


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
    groups = tuple(
        _SpeedGroup(r, tuple(slice(int(starts[k]), int(stops[k])) for k in ks), shift[u])
        for u, (r, ks) in enumerate(zip(rows, runs))
    )
    return XAdvectionPlan(xgrid.n_cells, groups)


def advect_x(f, plan: XAdvectionPlan):
    """Apply the periodic SLDG x-update to every velocity DOF row of f.

    `f` is shaped (n_velocity_dofs, n_x_dofs), in any memory order.  Each
    run of equal-speed rows updates in place as one (n_cells, p+1, rows)
    block of f.T; zero-speed rows keep their bits.  Updates f in place and
    returns it.
    """
    ft = f.T
    for g in plan.groups:
        if g.decomp.n_shift == 0 and g.decomp.frac == 0.0:
            continue
        for run in g.runs:
            block = ft[:, run].reshape(plan.n_cells, -1, run.stop - run.start)
            apply_update(block, g.decomp)
    return f


def compute_rho(f, velocity_weights):
    """Charge density at the x DOFs: quadrature of f over velocity space."""
    return np.asarray(velocity_weights) @ f


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
