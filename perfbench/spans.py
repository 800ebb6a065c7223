"""Per-layer tracing from outside the solver.

`traced(tracer)` temporarily replaces the public names that
`sldg_vlasov.driver` calls (the set-up constructors, `advect_x`,
`advect_velocity`, `Simulation.field_solve` and `Simulation.diagnostics`)
and the names the sweep modules call (`sweep_pencil`,
`precompute_level_matrices`, `apply_update`) with wrappers that record a
span (name, start, end, parent) around every call.  The real
`Simulation(config)` and `Simulation.step()` then run unchanged under the
caller's `setup` and `driver.step` spans.  Spans stay in memory;
`per_root` folds them into per-step (or per-setup) totals.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sldg_vlasov import driver, vsweep, xfield


class Tracer:
    """In-memory span list; each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.max_shift = 0  # largest |n_shift| of any swept column

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapped

    def watch_shift(self, fn):
        """Wrap `precompute_level_matrices` to keep the largest integer shift."""
        def wrapped(*args, **kwargs):
            lm = fn(*args, **kwargs)
            self.max_shift = max(self.max_shift, *(abs(int(n)) for n in lm.n_shift))
            return lm
        return wrapped


# (owner, attribute the solver calls, span name)
WRAPPED = (
    (driver, "DGBasis", "basis.setup"),
    (driver, "build_mesh", "vmesh.build"),
    (driver, "build_permutation", "tensor.permutation"),
    (driver, "extract_pencils", "pencil.extract"),
    (driver, "classify_conforming", "pencil.extract"),
    (driver, "build_sweep_plan", "vsweep.plan"),
    (driver, "XGrid", "xfield.plan"),
    (driver, "precompute_x_matrices", "xfield.plan"),
    (driver, "PoissonSolver", "xfield.plan"),
    (driver, "advect_x", "xfield.advect"),
    (driver, "advect_velocity", "vsweep.advect"),
    (driver.Simulation, "field_solve", "xfield.field_solve"),
    (driver.Simulation, "diagnostics", "driver.diagnostics"),
    (vsweep, "sweep_pencil", "vsweep.sweep_pencil"),
    (vsweep, "precompute_level_matrices", "vsweep.level_matrices"),
    (vsweep, "apply_update", "sldg1d.apply_update"),
    (xfield, "apply_update", "sldg1d.apply_update"),
)


@contextmanager
def traced(tracer: Tracer):
    """Record spans around the names the solver calls, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
    try:
        for owner, attr, name in WRAPPED:
            fn = tracer.wrap(name, getattr(owner, attr))
            if name == "vsweep.level_matrices":
                fn = tracer.watch_shift(fn)
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def per_root(spans, root_name: str) -> list[dict]:
    """Fold the spans under each root span called `root_name` into totals.

    For every such root the dict maps `<name>` to the summed duration in
    seconds of its descendants called `name`, `#<name>` to their count,
    and `self:<name>` to their summed duration minus that of their direct
    children.  `vsweep.sweep_pencil` spans are split into
    `vsweep.sweep_uniform` (they called `apply_update`: the whole-pencil
    fast path) and `vsweep.sweep_mixed`.
    """
    n = len(spans)
    root = np.empty(n, dtype=np.int64)
    child_time = np.zeros(n)
    called_apply = np.zeros(n, dtype=bool)
    for i, (name, start, end, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += end - start
            if name == "sldg1d.apply_update":
                called_apply[parent] = True
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        r = int(root[i])
        if spans[r][0] != root_name:
            continue
        if name == "vsweep.sweep_pencil":
            name = "vsweep.sweep_uniform" if called_apply[i] else "vsweep.sweep_mixed"
        d = out.setdefault(r, {})
        dur = end - start
        d[name] = d.get(name, 0.0) + dur
        d["#" + name] = d.get("#" + name, 0) + 1
        d["self:" + name] = d.get("self:" + name, 0.0) + dur - child_time[i]
    return [out[r] for r in sorted(out)]


def plan_counts(sim) -> dict:
    """Exact work counts computed from the plan objects of one `Simulation`.

    Cell-line counts are per column sweep (one x DOF) and are derived from
    the plan, not counted during the sweep.  A pencil group whose cells are
    all conforming and at one level takes the whole-pencil fast path
    (`uniform_groups`); in the other groups conforming cells take the
    per-cell fast loop and the rest the slow path.  The per-cell rule also
    needs `|n_shift| <= 1`, which the traced run checks on every column.
    The x-advection flop and byte figures are computed for one step (two
    half-steps) of the moving speed groups: two (p+1)x(p+1) matrix
    products and one add per cell row, and one read plus one write of each
    moved row of f.
    """
    plan, xgrid, x_plan = sim.sweep_plan, sim.xgrid, sim.x_plan
    o = sim.basis.n_nodes
    fast = slow = swept = uniform_groups = 0
    for g in plan.groups:
        uniform = bool(g.conforming.all()) and bool((g.levels == g.levels[0]).all())
        uniform_groups += uniform
        n_fast = g.n_cells if uniform else int(g.conforming.sum())
        fast += g.n_lines * n_fast
        slow += g.n_lines * (g.n_cells - n_fast)
        swept += g.n_lines * g.n_cells * o
    ox = xgrid.degree + 1
    moving = sum(len(g.rows) for g in x_plan.groups
                 if g.decomp.n_shift != 0 or g.decomp.frac != 0.0)
    cell_rows = moving * xgrid.n_cells
    lines_per_pencil = len(sim.perm.lines[plan.direction])
    return {
        "vmesh.cells": sim.mesh.n_cells,
        "pencil.pencils": sum(g.n_lines for g in plan.groups) // lines_per_pencil,
        "uniform_groups": uniform_groups,
        "mixed_groups": len(plan.groups) - uniform_groups,
        "xfield.speed_groups": len(x_plan.groups),
        "xfield.advect_flop": 2 * cell_rows * (4 * ox * ox + ox),
        "xfield.advect_bytes": 2 * 2 * 8 * moving * xgrid.n_dofs,
        "vsweep.fast_cell_lines": fast,
        "vsweep.slow_cell_lines": slow,
        "vsweep.fast_fraction": fast / (fast + slow),
        "vsweep.sweep_redundancy": swept / plan.n_dofs,
    }
