"""Spatial side of the solver: periodic DG x-grid, x-advection, Poisson solve.

The x-advection reuses the uniform-grid SLDG update with one precomputed
overlap pair per distinct velocity-DOF speed and step length (speeds never
change, so the pairs are built once before the time loop; a plan for a
second step length reuses the first plan's speed groups).  Each group's
rows update as runs of consecutive rows, one contiguous block of the
x-major field per run.  The Poisson equation is discretized with
continuous finite elements of the same degree on the same cells and solved
directly with a zero-mean constraint to fix the periodic null space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .basis import DGBasis
from .sldg1d import (OverlapPair, ShiftDecomposition, apply_update, decompose_shift, index_runs,
                     overlap_pair)


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
    speed: float
    decomp: ShiftDecomposition
    pair: OverlapPair


@dataclass(frozen=True)
class XAdvectionPlan:
    """Velocity-DOF rows grouped by advection speed, with their matrices.

    Each group's rows go as runs of consecutive rows: a run is one
    contiguous block of every x DOF's velocity values when f is stored
    x-major.
    """

    n_cells: int
    groups: tuple


def _build_plan(xgrid: XGrid, rows, speeds, dt: float) -> XAdvectionPlan:
    """Plan for the given row groups and their speeds, matrices built in one batch."""
    d = decompose_shift(speeds, dt, xgrid.h)
    pair = overlap_pair(xgrid.basis, d.frac)
    groups = tuple(
        _SpeedGroup(r, index_runs(r), float(speeds[u]),
                    ShiftDecomposition(int(d.n_shift[u]), float(d.frac[u])),
                    OverlapPair(pair.same[u], pair.neighbor[u]))
        for u, r in enumerate(rows)
    )
    return XAdvectionPlan(xgrid.n_cells, groups)


def precompute_x_matrices(xgrid: XGrid, speeds, dt: float) -> XAdvectionPlan:
    """One shift decomposition and overlap pair per distinct speed.

    The decompositions and pairs of all distinct speeds are built in one
    batch.  Velocity DOFs sharing the same sweep coordinate share them;
    zero-speed rows get the exact identity pair and are skipped when the
    plan is applied.
    """
    speeds = np.asarray(speeds, dtype=float)
    if not np.isfinite(speeds).all():
        raise ValueError("advection speeds must be finite")
    uniq, inverse = np.unique(speeds, return_inverse=True)
    rows = [np.nonzero(inverse == u)[0] for u in range(len(uniq))]
    return _build_plan(xgrid, rows, uniq, dt)


def rescale_x_plan(xgrid: XGrid, plan: XAdvectionPlan, dt: float) -> XAdvectionPlan:
    """The plan's row groups and speeds with matrices for time step dt.

    Equal to `precompute_x_matrices` at dt for the same speeds, without
    grouping the rows again.
    """
    speeds = np.array([g.speed for g in plan.groups])
    return _build_plan(xgrid, [g.rows for g in plan.groups], speeds, dt)


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
            apply_update(block, g.decomp, g.pair)
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
