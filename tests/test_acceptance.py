"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The long benchmark criteria (5, 6, 7) run full simulations and take about
3-15 s each on a 2-core machine; everything else completes in seconds.
"""

import numpy as np
import pytest

from sldg_vlasov.basis import DGBasis
from sldg_vlasov.driver import (
    LANDAU_RATE_K05,
    SimConfig,
    Simulation,
    fit_damping_rate,
    run,
)
from sldg_vlasov.sldg1d import decompose_shift, overlap_pair
from sldg_vlasov.vmesh import build_mesh, ip_count
from sldg_vlasov.vsweep import advect_velocity, build_sweep_plan, sweep_pencil

from oracle import apply_update_cells, projection_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_partition_of_unity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for p in range(1, 6):
        basis = DGBasis(p)
        for frac in rng.random(1000):
            pair = overlap_pair(basis, frac)
            viol = np.abs(
                basis.weights @ (pair.same + pair.neighbor) - basis.weights
            ).max()
            worst = max(worst, viol)
    ok = worst < 1e-12
    _report(1, ok, f"max partition-of-unity violation {worst:.3e} (< 1e-12)")
    assert ok


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(1002)
    worst_uniform = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(3, 9))
        basis = DGBasis(p)
        vals = rng.standard_normal((n, p + 1))
        disp = rng.uniform(-2.5 * n, 2.5 * n)
        bc = "periodic" if rng.random() < 0.7 else "absorbing"
        if bc == "periodic":
            d = decompose_shift(disp, 1.0, 1.0)
            got = apply_update_cells(vals, d, overlap_pair(basis, d.frac))
        else:  # the velocity sweep on a uniform pencil
            got = sweep_pencil(vals, np.ones(n), disp, 1.0, bc, basis)
        expect = projection_oracle(vals, disp, 1.0, basis, bc)
        worst_uniform = max(worst_uniform, np.abs(got - expect).max())

    basis = DGBasis(3)
    mesh = build_mesh(3, 4, 1, 6.0)
    plan = build_sweep_plan(mesh, basis)
    f = rng.standard_normal((plan.n_dofs, 3))
    speeds = rng.uniform(-1.5, 1.5, size=3)
    fa, fb = f.copy(), f.copy()
    advect_velocity(fa, speeds, 0.1, plan, bc="absorbing")
    advect_velocity(fb, speeds, 0.1, plan, bc="absorbing", force_slow=True)
    worst_hybrid = np.abs(fa - fb).max()

    ok = worst_uniform <= 1e-12 and worst_hybrid <= 1e-12
    _report(2, ok, f"oracle diff {worst_uniform:.3e}, hybrid-vs-slow diff "
                   f"{worst_hybrid:.3e} (<= 1e-12)")
    assert ok


def test_criterion_3_polynomial_exactness():
    # Destination cells whose two sources wrap coherently must reproduce the
    # translated polynomial exactly; the single seam cell per shift reads a
    # stitched pair of period images and is checked against the projection
    # oracle instead (the translate of a non-periodic polynomial is not in
    # the periodic broken space there).
    rng = np.random.default_rng(1003)
    n, h = 8, 0.5
    worst = 0.0
    for p in range(1, 6):
        basis = DGBasis(p)
        coeff = rng.standard_normal(p + 1)
        poly = np.polynomial.Polynomial(coeff)
        coords = np.arange(n)[:, None] * h + 0.5 * (basis.nodes[None, :] + 1.0) * h
        vals = poly(coords)
        scale = max(1.0, np.abs(vals).max())
        for disp in rng.uniform(-3 * n * h, 3 * n * h, size=37):
            d = decompose_shift(disp, 1.0, h)
            out = apply_update_cells(vals, d, overlap_pair(basis, d.frac))
            oracle = projection_oracle(vals, disp, h, basis, "periodic")
            for i in range(n):
                src_hi = i - d.n_shift
                if src_hi // n == (src_hi - 1) // n:
                    expect = poly(coords[i] - disp - (src_hi // n) * n * h)
                else:
                    expect = oracle[i]
                worst = max(worst, np.abs(out[i] - expect).max() / scale)
    ok = worst <= 1e-12
    _report(3, ok, f"max translation error {worst:.3e} (<= 1e-12 relative)")
    assert ok


def test_criterion_4_mesh_counts():
    counts = {
        (4, 0): build_mesh(3, 4, 0, 6.0).n_cells,
        (4, 1): build_mesh(3, 4, 1, 6.0).n_cells,
        (4, 2): build_mesh(3, 4, 2, 6.0).n_cells,
        (3, 1): build_mesh(3, 3, 1, 6.0).n_cells,
    }
    ips = {
        "q3-4-1": ip_count(build_mesh(3, 4, 1, 6.0), 3),
        "q5-4-0": ip_count(build_mesh(3, 4, 0, 6.0), 5),
    }
    ok = (
        counts == {(4, 0): 64, (4, 1): 120, (4, 2): 176, (3, 1): 34}
        and ips == {"q3-4-1": 7680, "q5-4-0": 13824}
    )
    _report(4, ok, f"cells {counts}, ips {ips}")
    assert ok


def test_criterion_5_landau_damping_q5_uniform():
    res = run(SimConfig(dim=3, n_base=4, levels=0, degree=5, n_steps=200))
    assert res.fit.ok, "no usable peaks"
    err = abs((res.fit.rate - LANDAU_RATE_K05) / LANDAU_RATE_K05)
    ok = err <= 0.05
    _report(5, ok, f"Q5 4^3 uniform rate {res.fit.rate:.5f}, error "
                   f"{100 * err:.2f}% (<= 5%), {res.fit.n_peaks} peaks")
    assert ok


def test_criterion_6_landau_damping_q4_amr():
    res = run(SimConfig(dim=3, n_base=4, levels=1, degree=4, n_steps=200))
    assert res.fit.ok, "no usable peaks"
    err = abs((res.fit.rate - LANDAU_RATE_K05) / LANDAU_RATE_K05)
    ok = err <= 0.10
    _report(6, ok, f"Q4 4^3+AMR1 rate {res.fit.rate:.5f}, error "
                   f"{100 * err:.2f}% (<= 10%), {res.fit.n_peaks} peaks")
    assert ok


def test_criterion_7_long_time_conservation():
    # Periodic velocity boundaries: the wrap keeps the transport exactly
    # conservative, matching the near-machine-precision mass behavior the
    # method promises (absorbing boundaries leak the interpolated Maxwellian
    # tail at ~1e-8 per unit time, see the decisions ledger).
    res = run(SimConfig(dim=3, n_base=4, levels=1, degree=3, n_steps=1000,
                        bc="periodic"))
    t = np.array([r.t for r in res.records])
    etot = np.array([r.e_total for r in res.records])
    drift = np.abs(etot - etot[0]) / abs(etot[0])
    # Secular growth: the late drift may not outgrow the early drift; the
    # two windows are disjoint, so a steadily growing drift fails.
    early = drift[t <= 10.0].max()
    late = drift[t >= 50.0].max()
    ok_mass = res.mass_error <= 1e-11
    ok_drift = res.energy_drift <= 1e-4
    ok_secular = late <= 3.0 * early
    ok = ok_mass and ok_drift and ok_secular
    _report(7, ok, f"mass error {res.mass_error:.3e} (<= 1e-11), energy drift "
                   f"{res.energy_drift:.3e} (<= 1e-4), late/early max drift "
                   f"{late / early:.2f} (<= 3)")
    assert ok_mass
    assert ok_secular
    # Coarse cells enter finer pencils prolonged to the pencils' transverse
    # nodes and return by L2 restriction, so crossing a refinement boundary
    # moves no mass between transverse coordinates; what drift is left is
    # splitting error.
    assert ok_drift


def test_criterion_8_smoke_1v():
    res = run(SimConfig(dim=1, n_base=64, levels=0, degree=3, n_steps=200))
    assert res.fit.ok, "no usable peaks"
    err = abs((res.fit.rate - LANDAU_RATE_K05) / LANDAU_RATE_K05)
    ok = err <= 0.10
    _report(8, ok, f"1V rate {res.fit.rate:.5f}, error {100 * err:.2f}% (<= 10%)")
    assert ok


def test_criterion_9_fit_oracle():
    t = np.arange(0.0, 20.0 + 1e-12, 0.1)
    series = np.exp(-0.1533 * t) * np.abs(np.cos(1.4156 * t))
    fit = fit_damping_rate(t, series)
    ok_rate = fit.ok and abs(fit.rate + 0.1533) <= 1e-3
    monotone = fit_damping_rate(t, np.exp(-0.2 * t))
    ok_sentinel = (not monotone.ok) and monotone.rate is None
    ok = ok_rate and ok_sentinel
    _report(9, ok, f"synthetic rate {fit.rate:.5f} (0.1533 +- 1e-3), "
                   f"monotone series sentinel {'ok' if ok_sentinel else 'bad'}")
    assert ok


def test_criterion_concurrency_determinism():
    # Two runs of one config give equal bits, on the 4^3+AMR1 and uniform 4^3
    # meshes (the solver is single-threaded, so nothing may depend on timing).
    worst = 0.0
    for n_base, levels in ((4, 1), (4, 0)):
        cfg = SimConfig(dim=3, n_base=n_base, levels=levels, degree=3, n_x=8,
                        perturbation=0.05, dt=0.2, n_steps=2)
        sims = [Simulation(cfg) for _ in range(2)]
        for _ in range(cfg.n_steps):
            for sim in sims:
                sim.step()
        for sim in sims:
            sim.sync()
        worst = max(worst, np.abs(sims[0].f - sims[1].f).max())
    ok = worst == 0.0
    _report(10, ok, f"two runs of one config max difference {worst:.3e} (== 0)")
    assert ok
