"""The names and plan fields the benchmark harness (perfbench/) relies on.

The harness wraps solver functions by name and reads plan objects; a
change that removes or renames one of them breaks the benchmark without
failing any solver test.  The harness modules are loaded from their files
without writing bytecode next to them.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sldg_vlasov.driver import SimConfig, Simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


@pytest.fixture(scope="module")
def amr_sim():
    # 3V, one AMR level, periodic v: pencils with shared coarse cells and
    # both fast and slow cells, as in the amr-q3l1-periodic workload.
    sim = Simulation(SimConfig(dim=3, n_base=4, levels=1, degree=2, n_x=8,
                               bc="periodic", n_steps=1))
    sim.step()
    return sim


def test_wrapped_names_resolve(spans):
    for owner, attr, _ in spans.WRAPPED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_step_records_spans(spans, amr_sim):
    tr = spans.Tracer()
    with spans.traced(tr), tr.span("driver.step"):
        amr_sim.step()
    rows = spans.per_root(tr.spans, "driver.step")
    assert len(rows) == 1
    for name in ("xfield.advect", "xfield.field_solve", "vsweep.advect", "driver.diagnostics"):
        assert rows[0]["#" + name] >= 1


def test_plan_counts(spans, amr_sim):
    counts = spans.plan_counts(amr_sim)
    assert counts["vmesh.cells"] == amr_sim.mesh.n_cells == 120
    assert counts["pencil.pencils"] > 0
    assert counts["vsweep.fast_cell_lines"] > 0 and counts["vsweep.slow_cell_lines"] > 0
    assert counts["xfield.speed_groups"] == len(amr_sim.x_plan.groups)


def test_check_hybrid_passes(checks, amr_sim):
    e_field = amr_sim.field_solve()
    cols = np.array([1, 5])
    assert np.abs(e_field[cols]).min() > 0.0
    assert checks.check_hybrid(amr_sim.f, e_field, amr_sim.config, amr_sim.sweep_plan, cols) == []
