"""Strang-split time integrator, diagnostics, and damping-rate extraction.

A Strang step is half x-advection, field solve, full v-advection with the
freshly solved electric field, half x-advection.  The trailing half
x-step of one step and the leading half x-step of the next are fused
into one full x-step (Cheng & Knorr 1976), so each step runs one
x-advection: `Simulation.step()` leaves its trailing half x-step pending,
the next step applies it together with its own leading half as a full
x-step, and `Simulation.sync()` applies a pending half step on its own.
`Simulation.run()` syncs before it returns.

A step makes three passes over f: the x-step and the v-sweep, which read
and write it, and one read pass after the v-sweep that sums each x speed
group's rows with the velocity weights w and, in 3V, with
w (v_y^2 + v_z^2) (`xfield.group_sums`).  The record's moments come from
these sums.  So does the next step's charge density: the x-step is
linear and moves a group's rows alike, so the group's sum moved by the
group's own shift (`xfield.advect_sums`) is the sum of the moved rows.
The sums are carried from one step to the next only while f is untouched
outside `step()`: `sync()` and any read or assignment of `Simulation.f`
drop them, and the next field solve takes them afresh from f.

Diagnostics (max field, velocity moments, field and total energy) are
recorded once per completed step and are valid with a half x-step
pending: the moments integrate each velocity row over x first, and the
periodic SLDG x-advection keeps every row's x-integral, while the field
energy and max field come from the mid-step field.  The damping rate is a
least-squares fit of log E_max over the initial strictly decreasing run
of envelope peaks.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .basis import MAX_DEGREE, DGBasis
from .sldg1d import ABSORBING, PERIODIC
from .vmesh import build_mesh, ip_count
from .vsweep import advect_velocity, build_sweep_plan
from .xfield import (PoissonSolver, XGrid, advect_sums, advect_x, field_energy, group_sums,
                     precompute_x_matrices)

# The traced benchmark wraps these names here; build_sweep_plan calls them itself.
from .pencil import extract_pencils  # noqa: F401
from .tensor import build_permutation  # noqa: F401
from .vsweep import classify_conforming  # noqa: F401

# Linear Landau damping rate of the k = 0.5 Maxwellian benchmark.
LANDAU_RATE_K05 = -0.1533


def _real(value) -> bool:
    """Whether `value` is a real number and not a bool (a bool would pass as 1.0 or 0.0)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
            if not _real(value) or not 0 < value < np.inf:
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")
        if self.bc not in (ABSORBING, PERIODIC):
            raise ValueError(f"bc must be absorbing or periodic, got {self.bc!r}")
        if self.workers != 1:
            raise ValueError(f"workers must be 1 (the solver is serial), got {self.workers}")
        if not _real(self.perturbation) or not 0 <= self.perturbation < 1:
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


def sum_weights(velocity_weights, vcoords) -> np.ndarray:
    """Velocity weights of the per-speed-group sums of f, shaped (1 + (dim > 1), n_v).

    Row 0 holds the quadrature weights w; in 3V, row 1 holds w (v_y^2 + v_z^2).
    """
    if vcoords.shape[1] == 1:
        return velocity_weights[None]
    perp2 = sum(c**2 for c in vcoords.T[1:])  # one pass per axis, far faster than a row-wise sum
    return np.stack([velocity_weights, velocity_weights * perp2])


def sum_moments(sums, speeds, x_weights):
    """Velocity moments (mass, x-momentum, energy moment) from per-speed-group sums.

    `sums` are the `group_sums` of f with its `sum_weights` and `speeds`
    each group's v_x.  Each group's sums are integrated over x first:
    with c = sums[g] @ x_weights, m0 = sum c0, m1 = sum v_g c0 and
    m2 = sum (v_g^2 c0 + c1).
    """
    c = sums @ x_weights
    c0 = c[:, 0]
    return float(c0.sum()), float(speeds @ c0), float(speeds**2 @ c0 + c[:, 1:].sum())


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
        self.sum_weights = sum_weights(self.vweights, self.vcoords)
        self.x_plan = precompute_x_matrices(self.xgrid, self.vcoords[:, 0], 0.5 * c.dt)
        self.x_plan_full = precompute_x_matrices(self.xgrid, self.vcoords[:, 0], c.dt)
        self.x_pending = False  # trailing half x-step of the last step not yet applied
        self.poisson = PoissonSolver(self.xgrid)
        self._f = sample_initial(c, self.vcoords, self.xgrid.dof_coords)
        self._sums = None       # carried group sums, or None once dropped
        self._moved_by = None   # the x-plan applied to f since the carried sums were taken
        self.t = 0.0
        self.n_done = 0  # completed steps

    @property
    def f(self) -> np.ndarray:
        """The distribution function; reading or assigning it drops the carried sums.

        `step()` carries the group sums its record took into the next
        step's field.  A caller may write into the returned array between
        steps, so every read of `f`, like every assignment and `sync()`,
        drops them, and the next field solve takes them afresh from f as
        it stands.  A write through an array read before the last `step()`
        is not seen: read `f` again to write into it.
        """
        self._sums = None
        return self._f

    @f.setter
    def f(self, value) -> None:
        self._sums = None
        self._f = value

    def _group_sums(self) -> np.ndarray:
        """The carried group sums, taken from f as it stands when none are carried."""
        if self._sums is None:
            self._sums = group_sums(self._f, self.x_plan, self.sum_weights)
            self._moved_by = None
        return self._sums

    def field_solve(self) -> np.ndarray:
        """Electric field of f as it stands, from the group sums.

        Sums carried across an x-step give the charge density moved by that
        step's plan (`xfield.advect_sums`); they are then spent, since they
        are not f's.
        """
        density = self._group_sums()[:, 0]
        if self._moved_by is None:
            rho = density.sum(axis=0)
        else:
            rho = advect_sums(density, self._moved_by)
            self._sums = self._moved_by = None
        phi = self.poisson.solve(rho)
        return self.poisson.electric_field(phi)

    def diagnostics(self, e_field) -> DiagnosticsRecord:
        m0, m1, m2 = sum_moments(self._group_sums(), self.x_plan.speeds,
                                 self.xgrid.dof_weights)
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
        values come from the mid-step field.  The field comes from the
        group sums the last record took, when they are still carried,
        moved by this step's x-step; the record's moments come from sums
        taken after the v-step, which the next step carries.

        Raises RuntimeError, naming the step, when the solved field is not
        finite (a non-finite f reaches it through the charge density).
        """
        c = self.config
        plan = self.x_plan_full if self.x_pending else self.x_plan
        advect_x(self._f, plan)
        self._moved_by = plan
        e_field = self.field_solve()
        if not np.isfinite(e_field).all():
            raise RuntimeError(f"non-finite electric field at step {self.n_done + 1}")
        advect_velocity(self._f, e_field, c.dt, self.sweep_plan, bc=c.bc,
                        force_slow=c.force_slow)
        self._sums = None
        self.x_pending = True
        self.t += c.dt
        self.n_done += 1
        return self.diagnostics(e_field)

    def sync(self) -> None:
        """Apply a pending trailing half x-step, so `f` holds the state at `t`.

        Drops the carried group sums.  Does nothing else when no half step
        is pending.
        """
        self._sums = None
        if self.x_pending:
            advect_x(self._f, self.x_plan)
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
