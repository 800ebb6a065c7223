"""Strang-split time integrator, diagnostics, and damping-rate extraction.

A Strang step is half x-advection, field solve, full v-advection with the
freshly solved electric field, half x-advection.  The trailing half
x-step of one step and the leading half x-step of the next are fused
into one full x-step (Cheng & Knorr 1976), so each step runs one
x-advection: `Simulation.step()` leaves its trailing half x-step pending,
the next step applies it together with its own leading half as a full
x-step, and `Simulation.sync()` applies a pending half step on its own.
`Simulation.run()` syncs before it returns.

Diagnostics (max field, velocity moments, field and total energy) are
recorded once per completed step and are valid with a half x-step
pending: the moments integrate each velocity row over x first, and the
periodic SLDG x-advection keeps every row's x-integral, while the field
energy and max field come from the mid-step field.  The damping rate is a
least-squares fit of log E_max over the initial strictly decreasing run
of envelope peaks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .basis import MAX_DEGREE, DGBasis
from .sldg1d import ABSORBING, PERIODIC
from .vmesh import build_mesh, ip_count
from .vsweep import advect_velocity, build_sweep_plan
from .xfield import (PoissonSolver, XGrid, advect_x, compute_rho, field_energy,
                     precompute_x_matrices)

# The traced benchmark wraps these names here; build_sweep_plan calls them itself.
from .pencil import extract_pencils  # noqa: F401
from .tensor import build_permutation  # noqa: F401
from .vsweep import classify_conforming  # noqa: F401

# Linear Landau damping rate of the k = 0.5 Maxwellian benchmark.
LANDAU_RATE_K05 = -0.1533


# SimConfig fields that count something and must be integers.
_COUNT_FIELDS = ("dim", "n_base", "levels", "degree", "degree_x", "n_x", "n_steps", "workers")


@dataclass(frozen=True)
class SimConfig:
    """Benchmark configuration; defaults match the standard damping test."""

    dim: int = 3
    n_base: int = 4
    levels: int = 0
    radius: float = 6.0
    degree: int = 3
    n_x: int = 64
    degree_x: int = 2
    wave_number: float = 0.5
    perturbation: float = 0.01
    dt: float = 0.1
    n_steps: int = 200
    bc: str = ABSORBING
    workers: int = 1  # only 1; kept while perfbench/run.py passes workers=1
    force_slow: bool = False

    def validate(self) -> "SimConfig":
        """Reject an invalid configuration with a message naming the field."""
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim not in (1, 3):
            raise ValueError(f"dim must be 1 or 3, got {self.dim}")
        if self.n_base < 2:
            raise ValueError(f"n_base must be >= 2, got {self.n_base}")
        if not 0 <= self.levels <= 3:
            raise ValueError(f"levels must be in [0, 3], got {self.levels}")
        for name in ("degree", "degree_x"):
            if not 1 <= getattr(self, name) <= MAX_DEGREE:
                raise ValueError(f"{name} must be in [1, {MAX_DEGREE}], got {getattr(self, name)}")
        if self.n_x < 4:
            raise ValueError(f"n_x must be >= 4, got {self.n_x}")
        for name in ("radius", "wave_number", "dt"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0 < value < np.inf:
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")
        if self.bc not in (ABSORBING, PERIODIC):
            raise ValueError(f"bc must be absorbing or periodic, got {self.bc!r}")
        if self.workers != 1:
            raise ValueError(f"workers must be 1 (the solver is serial), got {self.workers}")
        if isinstance(self.perturbation, bool) or not 0 <= self.perturbation < 1:
            raise ValueError(f"perturbation must be in [0, 1), got {self.perturbation!r}")
        if not isinstance(self.force_slow, (bool, np.bool_)):
            raise ValueError(f"force_slow must be a bool, got {self.force_slow!r}")
        return self

    @property
    def length(self) -> float:
        return 2.0 * np.pi / self.wave_number


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    e_max: float
    m0: float
    m1: float
    m2: float
    e_field: float
    e_total: float


@dataclass(frozen=True)
class DampingFit:
    """Envelope fit result; rate is None when fewer than 2 usable peaks exist."""

    rate: float | None
    intercept: float | None
    n_peaks: int
    peak_times: np.ndarray
    peak_values: np.ndarray

    @property
    def ok(self) -> bool:
        return self.rate is not None


@dataclass
class RunResult:
    config: SimConfig
    records: list
    fit: DampingFit
    mass_error: float
    energy_drift: float
    n_cells: int
    n_ips: int
    wall_time: float


def velocity_dof_coords(mesh, basis: DGBasis, perm) -> np.ndarray:
    """Physical coordinates of every velocity DOF, shape (n_dofs, dim)."""
    ref = 0.5 * (basis.nodes[perm.forward] + 1.0)          # (n_local, dim)
    coords = mesh.lo[:, None, :] + ref[None, :, :] * mesh.width[:, None, :]
    return coords.reshape(-1, mesh.dim)


def velocity_dof_weights(mesh, basis: DGBasis, perm) -> np.ndarray:
    """Tensor GLL quadrature weight of every velocity DOF."""
    wprod = basis.weights[perm.forward].prod(axis=1)       # (n_local,)
    jac = (0.5 * mesh.width).prod(axis=1)                  # (n_cells,)
    return (jac[:, None] * wprod[None, :]).ravel()


def maxwellian(vcoords, dim: int) -> np.ndarray:
    """Unit-density Maxwellian (2 pi)^(-dim/2) exp(-|v|^2 / 2)."""
    v2 = (np.asarray(vcoords) ** 2).sum(axis=-1)
    return (2.0 * np.pi) ** (-dim / 2.0) * np.exp(-0.5 * v2)


def sample_initial(config: SimConfig, vcoords, xcoords) -> np.ndarray:
    """Perturbed Maxwellian sampled at every (velocity DOF, x DOF) pair.

    The samples are stored x-major: the result, shaped (n_velocity_dofs,
    n_x_dofs), is the transpose view of a C-contiguous array.
    """
    gv = maxwellian(vcoords, config.dim)
    gx = 1.0 + config.perturbation * np.cos(config.wave_number * np.asarray(xcoords))
    return (gx[:, None] * gv[None, :]).T


def moment_weights(velocity_weights, vcoords) -> np.ndarray:
    """(3, n_v) velocity quadrature weights of the mass, x-momentum and energy moments."""
    v2 = sum(c**2 for c in vcoords.T)  # one pass per axis, far faster than a row-wise sum
    return np.stack([velocity_weights, velocity_weights * vcoords[:, 0], velocity_weights * v2])


def moments(f, weights, x_weights):
    """Velocity moments (mass, x-momentum, energy moment) of the field.

    `weights` are the field's `moment_weights`; each velocity row is
    integrated over x first.  Each moment is its own dot product: one
    (3, n_v) matrix-vector product sums in another order, and on q3-4-1
    with periodic v it read a mass error of 2.5e-15 after 10 steps where
    the dot products read 4e-16.
    """
    col = f @ x_weights
    m0, m1, m2 = (float(w @ col) for w in weights)
    return m0, m1, m2


def _peak_indices(values) -> np.ndarray:
    """Strict three-point local maxima; plateaus break toward the earlier index.

    Each run of equal values stands for its first index, and a run above
    both neighboring runs is a peak.
    """
    v = np.asarray(values)
    first = np.ones(len(v), dtype=bool)
    first[1:] = v[1:] != v[:-1]
    start = np.flatnonzero(first)
    r = v[start]
    return start[1:-1][(r[1:-1] > r[:-2]) & (r[1:-1] > r[2:])]


def fit_damping_rate(times, values) -> DampingFit:
    """Exponential envelope rate from the decreasing run of E_max peaks.

    Keeps the maximal initial run of strictly decreasing peak values (the
    usable window before recurrence) and fits log(peak) against time by
    least squares; fewer than two usable peaks yields an explicit
    insufficient-peaks result.  Raises ValueError unless both series have
    one shape.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError(f"times and values must have one shape, got {times.shape} "
                         f"and {values.shape}")
    if len(times) < 3:
        return DampingFit(None, None, 0, np.array([]), np.array([]))
    idx = _peak_indices(values).tolist()
    run = idx[:1]
    for k in idx[1:]:
        if values[k] < values[run[-1]]:
            run.append(k)
        else:
            break
    pt = times[run]
    pv = values[run]
    if len(run) < 2:
        return DampingFit(None, None, len(run), pt, pv)
    slope, intercept = np.polyfit(pt, np.log(pv), 1)
    return DampingFit(float(slope), float(intercept), len(run), pt, pv)


class Simulation:
    """Owns the discrete state and advances it with Strang splitting.

    `f` is shaped (n_velocity_dofs, n_x_dofs), with velocity rows in the
    sweep plan's order (row r holds cell-local DOF sweep_plan.order[r];
    `vcoords` and `vweights` follow it).  It is the transpose view of a
    C-contiguous (n_x_dofs, n_velocity_dofs) array, so each x DOF's
    velocity values are contiguous for the velocity sweep and each run of
    equal-speed rows is a contiguous block for the x-advection.
    """

    def __init__(self, config: SimConfig):
        self.config = config.validate()
        c = self.config
        self.basis = DGBasis(c.degree)
        self.mesh = build_mesh(c.dim, c.n_base, c.levels, c.radius)
        self.sweep_plan = build_sweep_plan(self.mesh, self.basis)
        self.perm = self.sweep_plan.perm
        self.xgrid = XGrid(c.n_x, c.degree_x, c.length)
        order = self.sweep_plan.order
        self.vcoords = velocity_dof_coords(self.mesh, self.basis, self.perm)[order]
        self.vweights = velocity_dof_weights(self.mesh, self.basis, self.perm)[order]
        self.moment_weights = moment_weights(self.vweights, self.vcoords)
        self.x_plan = precompute_x_matrices(self.xgrid, self.vcoords[:, 0], 0.5 * c.dt)
        self.x_plan_full = precompute_x_matrices(self.xgrid, self.vcoords[:, 0], c.dt)
        self.x_pending = False  # trailing half x-step of the last step not yet applied
        self.poisson = PoissonSolver(self.xgrid)
        self.f = sample_initial(c, self.vcoords, self.xgrid.dof_coords)
        self.t = 0.0
        self.n_done = 0  # completed steps

    def field_solve(self) -> np.ndarray:
        rho = compute_rho(self.f, self.vweights)
        phi = self.poisson.solve(rho)
        return self.poisson.electric_field(phi)

    def diagnostics(self, e_field) -> DiagnosticsRecord:
        m0, m1, m2 = moments(self.f, self.moment_weights, self.xgrid.dof_weights)
        e_e = field_energy(e_field, self.xgrid)
        return DiagnosticsRecord(
            t=self.t,
            e_max=float(np.max(np.abs(e_field))),
            m0=m0, m1=m1, m2=m2,
            e_field=e_e,
            e_total=0.5 * m2 + e_e,
        )

    def step(self) -> DiagnosticsRecord:
        """One Strang step with its trailing half x-step left pending.

        Applies the previous step's pending half x-step fused with this
        step's leading one as a single full x-step (a half x-step when none
        is pending), then the field solve and the full v-step.  `f` is
        left with the trailing half x-step pending; `sync()` applies it.
        The returned record is valid without a sync: its moments are
        x-integrals, which the periodic x-advection keeps, and its field
        values come from the mid-step field.

        Raises RuntimeError, naming the step, when the solved field is not
        finite (a non-finite f reaches it through the charge density).
        """
        c = self.config
        advect_x(self.f, self.x_plan_full if self.x_pending else self.x_plan)
        e_field = self.field_solve()
        if not np.isfinite(e_field).all():
            raise RuntimeError(f"non-finite electric field at step {self.n_done + 1}")
        advect_velocity(self.f, e_field, c.dt, self.sweep_plan, bc=c.bc,
                        force_slow=c.force_slow)
        self.x_pending = True
        self.t += c.dt
        self.n_done += 1
        return self.diagnostics(e_field)

    def sync(self) -> None:
        """Apply a pending trailing half x-step, so `f` holds the state at `t`.

        Does nothing when no half step is pending.
        """
        if self.x_pending:
            advect_x(self.f, self.x_plan)
            self.x_pending = False

    @staticmethod
    def _check_finite(rec: DiagnosticsRecord, step: int) -> DiagnosticsRecord:
        vals = (rec.e_max, rec.m0, rec.m1, rec.m2, rec.e_field)
        if not all(np.isfinite(v) for v in vals):
            raise RuntimeError(f"non-finite diagnostics at step {step}")
        return rec

    def run(self) -> RunResult:
        """Record the current state, advance `n_steps` steps, and sync `f`."""
        start = time.perf_counter()
        self.sync()
        records = [self._check_finite(self.diagnostics(self.field_solve()), 0)]
        for _ in range(self.config.n_steps):
            records.append(self._check_finite(self.step(), self.n_done))
        self.sync()
        wall = time.perf_counter() - start

        t = np.array([r.t for r in records])
        emax = np.array([r.e_max for r in records])
        m0 = np.array([r.m0 for r in records])
        etot = np.array([r.e_total for r in records])
        fit = fit_damping_rate(t, emax)
        mass_error = float(np.max(np.abs(m0 - m0[0])) / abs(m0[0]))
        energy_drift = float(np.max(np.abs(etot - etot[0])) / abs(etot[0]))
        return RunResult(
            config=self.config,
            records=records,
            fit=fit,
            mass_error=mass_error,
            energy_drift=energy_drift,
            n_cells=self.mesh.n_cells,
            n_ips=ip_count(self.mesh, self.config.degree),
            wall_time=wall,
        )


def run(config: SimConfig) -> RunResult:
    return Simulation(config).run()
