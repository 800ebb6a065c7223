"""Landau-damping benchmark of the SLDG Vlasov-Poisson solver.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-q5 --seed 1 --seconds 60 --trace 0

With `--trace 0` it times `Simulation(config)` and `Simulation.step()` at
the call boundary and prints the end-to-end metrics; with `--trace 1` it
runs the same calls with recording wrappers around the public names the
solver calls (spans.py) and prints the per-layer metrics.  Every solve is
checked (see checks.py).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for workloads, metrics and baselines.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads its BLAS.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

try:
    import sldg_vlasov
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the solver from {SRC}: {exc}")
if not Path(sldg_vlasov.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: solver imported from {sldg_vlasov.__file__}, not {SRC}")

import numpy as np
import scipy

from sldg_vlasov import RunResult, SimConfig, Simulation, cli, fit_damping_rate, ip_count

import checks
import spans

ALPHA_RANGE = (0.005, 0.02)
HYBRID_COLUMNS = 2
SETUP_REPEATS = 9
SETUPS_PER_SOLVE = 3
TAIL_BEYOND = 10


# Why each workload is here: the "why" of its entry in BENCHMARK.json.
WORKLOADS = {
    "uniform-q5": SimConfig(  # Table-2 q5-4-0
        dim=3, n_base=4, levels=0, degree=5, n_x=64, degree_x=2, bc="absorbing", n_steps=10),
    "amr-q3l1-periodic": SimConfig(  # Table-2 q3-4-1, periodic in v
        dim=3, n_base=4, levels=1, degree=3, n_x=64, degree_x=2, bc="periodic", n_steps=10),
}


def workload_config(name: str, seed: int) -> SimConfig:
    """The workload's config with the seed's perturbation amplitude."""
    alpha = float(np.random.default_rng(seed).uniform(*ALPHA_RANGE))
    return replace(WORKLOADS[name], perturbation=alpha, workers=1).validate()


def hybrid_columns(config: SimConfig, seed: int) -> np.ndarray:
    n_x_dofs = config.n_x * (config.degree_x + 1)
    return np.sort(np.random.default_rng([seed, 1]).choice(n_x_dofs, HYBRID_COLUMNS,
                                                           replace=False))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level = _read(base + "level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(base + "size").strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
    }


@dataclass
class Solve:
    """One checked run: setup, the workload's fixed steps and the damping fit."""

    records: list
    fit: object
    setup_s: float
    solve_s: float
    step_s: list
    failures: list
    sim: Simulation | None


def _no_span(name):
    return nullcontext()


def solve(config: SimConfig, tr: spans.Tracer | None = None) -> Solve:
    """Time `Simulation(config)` and each `Simulation.step()` at the call boundary.

    With a tracer the set-up and each step also run under `setup` and
    `driver.step` spans; the caller installs the nested wrappers.
    """
    span = tr.span if tr else _no_span
    t0 = perf_counter()
    with span("setup"):
        sim = Simulation(config)
    setup_s = perf_counter() - t0
    records = [sim.diagnostics(sim.field_solve())]
    step_s = []
    for _ in range(config.n_steps):
        with span("driver.step"):
            t1 = perf_counter()
            records.append(sim.step())
            step_s.append(perf_counter() - t1)
    fit = fit_damping_rate([r.t for r in records], [r.e_max for r in records])
    failures = checks.check_records(records, config)
    return Solve(records, fit, setup_s, perf_counter() - t0, step_s, failures, sim)


def failures_of(fn, *args) -> list[str]:
    """The failure messages fn returns, or its traceback if it raises."""
    try:
        return list(fn(*args) or [])
    except Exception:  # noqa: BLE001 - a raising check is a failed check
        return [traceback.format_exc(limit=3).strip()]


def checked_solve(config: SimConfig, cols, tr: spans.Tracer | None = None) -> Solve:
    """A solve, traced if given a tracer, plus the hybrid-sweep check on its final state."""
    if tr is None:
        s = solve(config)
    else:
        with spans.traced(tr):
            s = solve(config, tr)
    sim = s.sim
    s.failures += failures_of(checks.check_hybrid, sim.f, sim.field_solve(), config,
                              sim.sweep_plan, cols)
    return s


def write_outputs(tr: spans.Tracer, run: Solve, config: SimConfig) -> None:
    """The CLI's CSV, plot script and JSON summary, into a scratch directory."""
    mass_error, energy_drift = checks.invariants(run.records)
    mesh = run.sim.mesh
    result = RunResult(config, run.records, run.fit, mass_error, energy_drift,
                       mesh.n_cells, ip_count(mesh, config.degree), run.solve_s)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        with tr.span("cli.write"):
            csv_path = os.path.join(tmp, "run.csv")
            cli.write_csv(csv_path, run.records)
            cli.write_plot_script(os.path.join(tmp, "plot_emax.py"), csv_path, run.fit)
            with open(os.path.join(tmp, "summary.json"), "w", newline="\n") as fh:
                fh.write(json.dumps(cli.summarize(result), indent=2) + "\n")


def traced_pair(tr: spans.Tracer, config: SimConfig, cols):
    """An untraced and a traced solve of one config; the traced one must match bitwise."""
    plain = checked_solve(config, cols)
    traced = checked_solve(config, cols, tr)
    failures = ([f"untraced: {m}" for m in plain.failures]
                + [f"traced: {m}" for m in traced.failures])
    if not np.array_equal(plain.sim.f.view(np.int64), traced.sim.f.view(np.int64)):
        failures.append("traced run left f different from the untraced run")
    if not records_equal(plain.records, traced.records):
        failures.append("traced run diagnostics differ from the untraced run")
    failures += failures_of(write_outputs, tr, traced, config)
    return plain, failures


def records_equal(a, b) -> bool:
    """Bitwise equality of two diagnostics histories."""
    ta, tb = (np.array([astuple(r) for r in recs]) for recs in (a, b))
    return np.array_equal(ta.view(np.int64), tb.view(np.int64))


class Ledger:
    """Attempted and failed runs, with every failure message kept."""

    def __init__(self):
        self.attempted = 0
        self.messages = []

    def record(self, label: str, failures: list) -> None:
        self.attempted += 1
        if failures:
            self.messages.append((label, failures))

    def guard(self, label: str, fn, *args):
        """Run fn; an exception counts as a failed run and yields None."""
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - a raising solve is a failed run
            self.record(label, [traceback.format_exc(limit=3).strip()])
            return None

    @property
    def failed(self) -> int:
        return len(self.messages)


def tail(samples) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    x = np.sort(np.asarray(samples))
    n = len(x)
    pct = max(0, int(np.floor(100.0 * (n - TAIL_BEYOND) / n)))
    while pct > 0 and (x > np.percentile(x, pct, method="lower")).sum() < TAIL_BEYOND:
        pct -= 1
    return float(np.percentile(x, pct, method="lower")), pct


def run_end_to_end(name: str, seed: int, seconds: float, ledger: Ledger):
    """Time setup and steps through the public API until `seconds` is spent."""
    config = workload_config(name, seed)
    start = perf_counter()
    setup_s = []
    solves, attempts, last = [], 0, 0.0
    cols = hybrid_columns(config, seed)
    while not attempts or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        label = f"solve {attempts}"
        attempts += 1
        s = ledger.guard(label, checked_solve, config, cols)
        if s is None:
            last = perf_counter() - t0
            continue
        ledger.record(label, s.failures)
        n_phase = s.sim.f.size
        s.sim = None  # one Simulation alive at a time keeps peak_rss_mb repeatable
        solves.append(s)
        for _ in range(SETUPS_PER_SOLVE):
            t1 = perf_counter()
            Simulation(config)
            setup_s.append(perf_counter() - t1)
        last = perf_counter() - t0
    if not solves:
        return None, {}
    steps = [1e3 * t for s in solves for t in s.step_s[1:]]  # first step of a solve warms up
    p50 = float(np.median(steps))
    tail_ms, pct = tail(steps)
    setup_s += [s.setup_s for s in solves]
    mass_error, energy_drift = checks.invariants(solves[-1].records)
    metrics = {
        "step_ms_p50": (p50, "ms"),
        "phase_dofs_per_s": (n_phase / (p50 / 1e3), "DOF/s"),
        "setup_s": (float(np.median(setup_s)), "s"),
        "solve_s": (float(np.median([s.solve_s for s in solves])), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "alpha": config.perturbation,
        "solves": len(solves),
        "step_samples": len(steps),
        # Printed, not gated: a shared host's slow phases set it (README).
        "step_ms_tail": tail_ms,
        "step_ms_tail_percentile": pct,
        "mass_error": mass_error,
        "energy_drift": energy_drift,
    }
    return metrics, notes


def _median(rows, key, scale=1e3):
    return float(np.median([scale * r.get(key, 0.0) for r in rows]))


def _exact(rows, key, failures):
    values = {r.get(key, 0) for r in rows}
    if len(values) != 1:
        failures.append(f"per-step count {key} differs between steps: {sorted(values)}")


def setup_counts(tr: spans.Tracer, name: str, seed: int) -> list[dict]:
    """Traced set-ups and the plan counts of each; the first uses the next seed's alpha."""
    out = []
    for k in range(SETUP_REPEATS):
        cfg = workload_config(name, seed + 1 if k == 0 else seed)
        with spans.traced(tr), tr.span("setup"):
            sim = Simulation(cfg)
        out.append(spans.plan_counts(sim))
    return out


def run_traced(name: str, seed: int, seconds: float, ledger: Ledger):
    """Per-layer spans from traced solves, each checked bitwise against an untraced one."""
    config = workload_config(name, seed)
    start = perf_counter()
    tr = spans.Tracer()
    all_counts = ledger.guard("traced set-up", setup_counts, tr, name, seed)
    if all_counts is None:
        return None, {}
    counts = all_counts[0]
    count_failures = [f"plan counts differ between set-ups: {c} vs {counts}"
                      for c in all_counts if c != counts]
    setup_rows = spans.per_root(tr.spans, "setup")

    tr.spans.clear()
    cols = hybrid_columns(config, seed)
    untraced_steps, pairs, attempts, last = [], 0, 0, 0.0
    while not attempts or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        label = f"traced pair {attempts}"
        attempts += 1
        n_spans = len(tr.spans)
        out = ledger.guard(label, traced_pair, tr, config, cols)
        last = perf_counter() - t0
        if out is None:
            del tr.spans[n_spans:]  # keep only whole solves in the step statistics
            continue
        plain, failures = out
        ledger.record(label, failures)
        untraced_steps += [1e3 * t for t in plain.step_s[1:]]
        pairs += 1
    if not pairs:
        return None, {}

    steps = spans.per_root(tr.spans, "driver.step")
    steps = [r for i, r in enumerate(steps) if i % config.n_steps != 0]  # drop warm-up steps
    writes = spans.per_root(tr.spans, "cli.write")
    step_ms = _median(steps, "driver.step")
    for key in ("#vsweep.sweep_uniform", "#vsweep.sweep_mixed",
                "#vsweep.level_matrices", "#sldg1d.apply_update"):
        _exact(steps, key, count_failures)
    # The plan-derived cell-line counts must describe what the sweep did: one
    # sweep_pencil per pencil group and swept column, on the predicted path.
    for r in steps:
        n_cols = r.get("#vsweep.level_matrices", 0)
        seen = (r.get("#vsweep.sweep_uniform", 0), r.get("#vsweep.sweep_mixed", 0))
        want = (counts["uniform_groups"] * n_cols, counts["mixed_groups"] * n_cols)
        if seen != want:
            count_failures.append(f"uniform/mixed sweeps per step {seen}, plan predicts {want}")
            break
    if tr.max_shift > 1:
        count_failures.append(f"a column shifted by {tr.max_shift} cells; the fast/slow "
                              "cell-line counts assume at most 1")
    if count_failures:
        ledger.record("exact counts", count_failures)
    untraced_ms = float(np.median(untraced_steps))
    mixed = "vsweep.sweep_mixed"
    uniform = "vsweep.sweep_uniform"
    metrics = {
        "xfield.advect_ms": (_median(steps, "xfield.advect"), "ms"),
        "xfield.field_solve_ms": (_median(steps, "xfield.field_solve"), "ms"),
        "xfield.plan_ms": (_median(setup_rows, "xfield.plan"), "ms"),
        "xfield.speed_groups": (counts["xfield.speed_groups"], "count"),
        "xfield.advect_flop": (counts["xfield.advect_flop"], "flop"),
        "xfield.advect_bytes": (counts["xfield.advect_bytes"], "B"),
        "sldg1d.apply_update_ms": (_median(steps, "sldg1d.apply_update"), "ms"),
        "sldg1d.apply_update_calls": (_median(steps, "#sldg1d.apply_update", 1), "count"),
        "vsweep.advect_ms": (_median(steps, "vsweep.advect"), "ms"),
        "vsweep.sweep_uniform_ms": (_median(steps, uniform), "ms"),
        "vsweep.sweep_mixed_ms": (_median(steps, mixed), "ms"),
        "vsweep.level_matrices_ms": (_median(steps, "vsweep.level_matrices"), "ms"),
        "vsweep.self_ms": (_median(steps, "self:vsweep.advect"), "ms"),
        "vsweep.plan_ms": (_median(setup_rows, "vsweep.plan"), "ms"),
        "vsweep.sweep_pencil_calls": (float(np.median(
            [r.get("#" + uniform, 0) + r.get("#" + mixed, 0) for r in steps])), "count"),
        "vsweep.fast_cell_lines": (counts["vsweep.fast_cell_lines"], "count"),
        "vsweep.slow_cell_lines": (counts["vsweep.slow_cell_lines"], "count"),
        "vsweep.fast_fraction": (counts["vsweep.fast_fraction"], "share"),
        "vsweep.sweep_redundancy": (counts["vsweep.sweep_redundancy"], "ratio"),
        "vmesh.build_ms": (_median(setup_rows, "vmesh.build"), "ms"),
        "vmesh.cells": (counts["vmesh.cells"], "count"),
        "pencil.extract_ms": (_median(setup_rows, "pencil.extract"), "ms"),
        "pencil.pencils": (counts["pencil.pencils"], "count"),
        "tensor.permutation_ms": (_median(setup_rows, "tensor.permutation"), "ms"),
        "basis.setup_ms": (_median(setup_rows, "basis.setup"), "ms"),
        "driver.step_ms": (step_ms, "ms"),
        "driver.diagnostics_ms": (_median(steps, "driver.diagnostics"), "ms"),
        "driver.self_ms": (_median(steps, "self:driver.step"), "ms"),
        "trace_overhead_pct": (100.0 * (step_ms - untraced_ms) / untraced_ms, "%"),
        "cli.write_ms": (_median(writes, "cli.write"), "ms"),
    }
    notes = {"alpha": config.perturbation, "pairs": pairs, "traced_steps": len(steps),
             "untraced_step_ms_p50": untraced_ms,
             "uniform_groups": counts["uniform_groups"], "mixed_groups": counts["mixed_groups"],
             "max_shift": tr.max_shift}
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    print("# machine " + json.dumps(machine()))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in bench["workloads"] if w["name"] == ns.workload)
    print(f"# workload {ns.workload}: {why}")
    ledger = Ledger()
    runner = run_traced if ns.trace else run_end_to_end
    metrics, notes = runner(ns.workload, ns.seed, ns.seconds, ledger)
    for label, failures in ledger.messages:
        for msg in failures:
            print(f"# FAILED {label}: {msg}")
    if metrics is None:
        print("perfbench: no run completed", file=sys.stderr)
        return 1
    print("# notes " + json.dumps(notes))
    print(f"# failed_runs {ledger.failed / ledger.attempted:.4f} share "
          f"({ledger.failed} of {ledger.attempted})")
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
