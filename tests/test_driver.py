from dataclasses import fields

import numpy as np
import pytest
from scipy.special import erf, wofz

from sldg_vlasov.driver import (
    LANDAU_RATE_K05,
    SimConfig,
    Simulation,
    _peak_indices,
    fit_damping_rate,
    run,
    sample_initial,
    sum_moments,
    velocity_dof_coords,
    velocity_dof_weights,
)
from sldg_vlasov.vsweep import advect_velocity
from sldg_vlasov.xfield import advect_sums, advect_x, group_sums

from oracle import apply_update_fresh, peak_indices_loop


def small_config(**kw):
    base = dict(dim=1, n_base=16, levels=0, degree=2, n_x=16, n_steps=5)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dim=2).validate()
    with pytest.raises(ValueError):
        SimConfig(n_base=1).validate()
    with pytest.raises(ValueError):
        SimConfig(dt=0.0).validate()
    with pytest.raises(ValueError):
        SimConfig(bc="reflecting").validate()
    with pytest.raises(ValueError, match="workers"):
        SimConfig(workers=2).validate()
    # A bool passed as 1.0 or 0.0 for these fields.
    for name, bad in (("radius", True), ("dt", True), ("wave_number", True),
                      ("perturbation", False)):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: bad}).validate()
    # A non-numeric real used to raise a bare TypeError from the comparison.
    for name, bad in (("radius", "6"), ("dt", "0.1"), ("perturbation", "0.01"),
                      ("radius", None), ("dt", 1 + 2j), ("wave_number", "0.5")):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: bad}).validate()
    assert SimConfig().validate().length == pytest.approx(4 * np.pi)


@pytest.mark.parametrize("name", ["dim", "n_base", "levels", "degree", "degree_x",
                                  "n_x", "n_steps", "workers"])
def test_config_rejects_noninteger_counts(name):
    value = getattr(SimConfig(), name)
    for bad in (value + 0.5, float(value), True, str(value)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**{name: bad}).validate()
    SimConfig(**{name: np.int64(value)}).validate()


@pytest.mark.parametrize("bad", ["no", 0, 1, None])
def test_config_rejects_nonbool_force_slow(bad):
    with pytest.raises(ValueError, match="force_slow must be a bool"):
        SimConfig(force_slow=bad).validate()
    SimConfig(force_slow=np.bool_(True)).validate()


def test_initial_value_at_origin():
    sim = Simulation(SimConfig(dim=3, n_base=4, levels=1, degree=3, n_x=8, n_steps=1))
    iv = np.nonzero((sim.vcoords == 0.0).all(axis=1))[0]
    assert iv.size > 0
    ix = np.nonzero(sim.xgrid.dof_coords == 0.0)[0]
    expect = (2 * np.pi) ** -1.5 * 1.01
    np.testing.assert_allclose(sim.f[np.ix_(iv, ix)], expect, rtol=1e-14)


def test_initial_unperturbed_x_independent():
    sim = Simulation(small_config(perturbation=0.0))
    assert np.abs(np.diff(sim.f, axis=1)).max() == 0.0


def test_initial_nonnegative():
    sim = Simulation(small_config())
    assert (sim.f >= 0).all()


def sums_of(sim, f=None):
    """The per-speed-group sums of `f` (default sim.f) that the simulation takes."""
    return group_sums(sim.f if f is None else f, sim.x_plan, sim.sum_weights)


def moments_of(sim, f=None):
    """Mass, x-momentum and energy moment of `f` (default sim.f) from its group sums."""
    return sum_moments(sums_of(sim, f), sim.x_plan.speeds, sim.xgrid.dof_weights)


def direct_moments(sim):
    """The moments of sim.f as three dot products over every velocity DOF."""
    col = sim.f @ sim.xgrid.dof_weights
    w, v = sim.vweights, sim.vcoords
    return w @ col, (w * v[:, 0]) @ col, (w * (v**2).sum(axis=1)) @ col


def density_of(sim, f):
    """Charge density of f as one dot product per x DOF."""
    return sim.vweights @ f


def test_initial_mass_matches_truncated_maxwellian():
    # m0 = L_x * (truncated Maxwellian mass)^dv, pinned by the erf oracle.
    sim = Simulation(SimConfig(dim=3, n_base=8, levels=0, degree=5, n_x=8, n_steps=1))
    m0, m1, m2 = moments_of(sim)
    expect = sim.config.length * erf(6.0 / np.sqrt(2.0)) ** 3
    assert abs(m0 - expect) / expect <= 1e-5
    assert abs(m0 - 4 * np.pi) / (4 * np.pi) <= 1e-5
    assert abs(m1) <= 1e-12 * m0


def test_moments_zero_field():
    sim = Simulation(small_config())
    z = np.zeros_like(sim.f)
    assert moments_of(sim, z) == (0.0, 0.0, 0.0)


def test_unperturbed_state_is_fixed_point():
    cfg = small_config(perturbation=0.0, n_steps=3)
    sim = Simulation(cfg)
    rec0 = sim.diagnostics(sim.field_solve())
    assert rec0.e_max <= 1e-6  # quadrature noise only
    for _ in range(3):
        rec = sim.step()
    assert abs(rec.m0 - rec0.m0) <= 1e-12 * abs(rec0.m0)
    assert abs(rec.m2 - rec0.m2) <= 1e-12 * abs(rec0.m2)


def test_vanishing_dt_regression():
    cfg = small_config(dt=1e-12, n_steps=1)
    sim = Simulation(cfg)
    before = sim.f.copy()
    sim.step()
    sim.sync()
    assert np.abs(sim.f - before).max() <= 1e-10


def test_mass_and_momentum_invariants_per_step():
    cfg = small_config(n_steps=10, bc="periodic")
    sim = Simulation(cfg)
    m0_prev = None
    for _ in range(10):
        rec = sim.step()
        if m0_prev is not None:
            assert abs(rec.m0 - m0_prev) <= 1e-12 * abs(m0_prev)
        m0_prev = rec.m0
        assert abs(rec.m1) <= 1e-10


def strang_step(sim) -> None:
    """One strict Strang step, half-x, field solve, full-v, half-x, on sim.f."""
    c = sim.config
    advect_x(sim.f, sim.x_plan)
    advect_velocity(sim.f, sim.field_solve(), c.dt, sim.sweep_plan, bc=c.bc)
    advect_x(sim.f, sim.x_plan)


# 3V 4^3+AMR1 and 1V with two AMR levels, both with shared coarse cells.
FUSED_CONFIGS = {
    "3v": SimConfig(dim=3, n_base=4, levels=1, degree=2, n_x=8, dt=0.2,
                    perturbation=0.05, n_steps=5, bc="periodic"),
    "1v": small_config(levels=2, dt=0.2, perturbation=0.05, n_steps=5, bc="periodic"),
}


@pytest.mark.parametrize("key", sorted(FUSED_CONFIGS))
def test_first_step_then_sync_is_strict_strang(key):
    # The first step has no pending half step, so it runs the half-dt plan.
    fused, strict = Simulation(FUSED_CONFIGS[key]), Simulation(FUSED_CONFIGS[key])
    fused.step()
    fused.sync()
    strang_step(strict)
    np.testing.assert_array_equal(fused.f, strict.f)


def test_sync_idempotent():
    sim = Simulation(FUSED_CONFIGS["1v"])
    before = sim.f.copy()
    sim.sync()  # nothing pending
    np.testing.assert_array_equal(sim.f, before)
    sim.step()
    sim.step()
    sim.sync()
    synced = sim.f.copy()
    sim.sync()
    np.testing.assert_array_equal(sim.f, synced)


@pytest.mark.parametrize("key", sorted(FUSED_CONFIGS))
def test_pending_record_moments_match_synced(key):
    # Periodic x-advection keeps every velocity row's x-integral, so the
    # moments recorded with a half x-step pending are the synced state's.
    # m1 is round-off zero here, so it is measured against the mass m0.
    sim = Simulation(FUSED_CONFIGS[key])
    for _ in range(3):
        rec = sim.step()
    sim.sync()
    m0, m1, m2 = direct_moments(sim)
    assert abs(rec.m0 - m0) <= 1e-14 * abs(m0)
    assert abs(rec.m1 - m1) <= 1e-14 * abs(m0)
    assert abs(rec.m2 - m2) <= 1e-14 * abs(m2)


# 3V Table-2 q3-4-1 with periodic v, and 1V with two AMR levels, absorbing.
SUMS_CONFIGS = {
    "3v": SimConfig(dim=3, n_base=4, levels=1, degree=3, n_x=16, perturbation=0.05,
                    bc="periodic"),
    "1v": small_config(levels=2, perturbation=0.05, bc="absorbing"),
}


@pytest.fixture(scope="module", params=sorted(SUMS_CONFIGS))
def stepped_sim(request):
    sim = Simulation(SUMS_CONFIGS[request.param])
    for _ in range(3):
        sim.step()
    return sim


@pytest.mark.parametrize("full", [False, True])
def test_moved_sums_give_density_of_x_stepped_copy(stepped_sim, full):
    # The x-step is linear and moves every row of a speed group alike, so
    # the groups' sums moved by their own shifts give the charge density of
    # the x-stepped state.  Measured 4e-16 (1v) and 7e-15 (3v) of max|rho|.
    sim = stepped_sim
    plan = sim.x_plan_full if full else sim.x_plan
    density = sums_of(sim)[:, 0]
    moved = advect_sums(density, plan)
    stepped = advect_x(sim.f.copy(), plan)
    want = density_of(sim, stepped)
    assert np.abs(moved - want).max() <= 1e-13 * np.abs(want).max()
    # The batched move is the sum of one apply_update per group.
    n, o = sim.xgrid.n_cells, sim.xgrid.basis.n_nodes
    per_group = sum(apply_update_fresh(s.reshape(n, o, 1).copy(), g.decomp).ravel()
                    for g, s in zip(plan.groups, density))
    assert np.abs(moved - per_group).max() <= 1e-14 * np.abs(per_group).max()


def test_sum_weights_have_two_rows_in_both_dimensions(stepped_sim):
    # 1V and 3V take their sums through one reduction: row 1 is the
    # transverse energy weight, zero in 1V.
    w, v = stepped_sim.vweights, stepped_sim.vcoords
    weights = stepped_sim.sum_weights
    assert weights.shape == (2, w.size)
    assert np.array_equal(weights[0], w)
    np.testing.assert_allclose(weights[1], w * (v[:, 1:] ** 2).sum(axis=1), rtol=1e-15, atol=0)


def test_moments_from_sums_match_dot_products(stepped_sim):
    # m1 is round-off zero here, so it is measured against the mass m0.
    m0, m1, m2 = moments_of(stepped_sim)
    d0, d1, d2 = direct_moments(stepped_sim)
    assert abs(m0 - d0) <= 1e-14 * abs(d0)
    assert abs(m1 - d1) <= 1e-14 * abs(d0)
    assert abs(m2 - d2) <= 1e-14 * abs(d2)


@pytest.mark.parametrize("key", sorted(SUMS_CONFIGS))
def test_write_into_f_between_steps_is_honoured(key):
    # A step carries the group sums of its record into the next step's
    # field; scaling f in place between the steps must drop them.
    sim = Simulation(SUMS_CONFIGS[key])
    sim.step()
    sim.f[...] *= 1.5
    stepped = advect_x(sim.f.copy(), sim.x_plan_full)
    e_field = sim.poisson.electric_field(sim.poisson.solve(density_of(sim, stepped)))
    want = np.abs(e_field).max()
    assert abs(sim.step().e_max - want) <= 1e-12 * want


def test_run_equals_steps_then_sync():
    cfg = FUSED_CONFIGS["1v"]
    ran = Simulation(cfg)
    res = ran.run()
    stepped = Simulation(cfg)
    records = [stepped.diagnostics(stepped.field_solve())]
    records += [stepped.step() for _ in range(cfg.n_steps)]
    stepped.sync()
    np.testing.assert_array_equal(ran.f, stepped.f)
    assert res.records == records
    assert not ran.x_pending and not stepped.x_pending


def test_run_syncs_a_pending_step_first():
    # run() records the current state, so a pending half step is applied first.
    pending, synced = Simulation(FUSED_CONFIGS["1v"]), Simulation(FUSED_CONFIGS["1v"])
    pending.step()
    synced.step()
    synced.sync()
    assert pending.run().records[0] == synced.diagnostics(synced.field_solve())


# One full-dt x projection replaces two half-dt ones, so fused steps move
# away from strict Strang by a projection error.  Measured after 5 steps:
# 1.24e-4 (3v) and 3.72e-5 (1v) of max|f|; the bound leaves a factor of 2.
FUSED_VS_STRICT_TOL = {"3v": 2.5e-4, "1v": 7.5e-5}


@pytest.mark.parametrize("key", sorted(FUSED_CONFIGS))
def test_fused_steps_close_to_strict_strang(key):
    cfg = FUSED_CONFIGS[key]
    fused, strict = Simulation(cfg), Simulation(cfg)
    for _ in range(cfg.n_steps):
        fused.step()
        strang_step(strict)
    fused.sync()
    diff = np.abs(fused.f - strict.f).max() / np.abs(strict.f).max()
    assert diff <= FUSED_VS_STRICT_TOL[key]


def test_landau_rate_is_the_linear_theory_root():
    # The k = 0.5 root of the Maxwellian dispersion relation
    # D(w) = 1 + (1 + z Z(z)) / k^2 = 0, z = w / (k sqrt 2), with the plasma
    # dispersion function Z = i sqrt(pi) wofz(z) and Z' = -2 (1 + z Z), by
    # Newton's method (the root is 1.415661889 - 0.153359467i).
    k = 0.5
    scale = k * np.sqrt(2.0)
    omega = 1.4 - 0.15j
    for _ in range(50):
        z = omega / scale
        zz = 1j * np.sqrt(np.pi) * wofz(z)
        d = 1.0 + (1.0 + z * zz) / k**2
        if abs(d) < 1e-12:
            break
        omega -= d / ((zz - 2.0 * z * (1.0 + z * zz)) / (k**2 * scale))
    assert abs(d) < 1e-12
    assert abs(LANDAU_RATE_K05 - omega.imag) <= 1e-3 * abs(omega.imag)


def test_fit_synthetic_envelope():
    t = np.arange(0.0, 20.0 + 1e-12, 0.1)
    series = np.exp(-0.1533 * t) * np.abs(np.cos(1.4156 * t))
    fit = fit_damping_rate(t, series)
    assert fit.ok
    assert abs(fit.rate + 0.1533) <= 1e-3


def test_fit_monotone_insufficient():
    t = np.arange(0.0, 5.0, 0.1)
    fit = fit_damping_rate(t, np.exp(-t))
    assert not fit.ok
    assert fit.rate is None
    assert fit.n_peaks < 2


def test_fit_two_peaks_exact_line():
    t = np.arange(11, dtype=float)
    y = np.full(11, 0.1)
    y[3], y[7] = 2.0, 1.0  # two isolated peaks
    fit = fit_damping_rate(t, y)
    assert fit.ok and fit.n_peaks == 2
    expect = (np.log(1.0) - np.log(2.0)) / (7.0 - 3.0)
    assert abs(fit.rate - expect) <= 1e-13


def test_fit_plateau_breaks_to_earlier_index():
    t = np.arange(8, dtype=float)
    y = np.array([0.0, 1.0, 1.0, 0.5, 0.8, 0.2, 0.1, 0.0])
    fit = fit_damping_rate(t, y)
    np.testing.assert_array_equal(fit.peak_times[:1], [1.0])


def test_peak_indices_match_loop():
    # Short series of small integers have plateaus everywhere, at the ends
    # too; NaN compares false both ways and inf ties with itself.
    rng = np.random.default_rng(89)
    for _ in range(2000):
        v = rng.integers(0, 5, size=rng.integers(0, 25)).astype(float)
        v[rng.random(v.size) < 0.05] = np.nan
        v[rng.random(v.size) < 0.05] = np.inf
        np.testing.assert_array_equal(_peak_indices(v), peak_indices_loop(v), err_msg=str(v))


def test_fit_short_series():
    fit = fit_damping_rate([0.0, 1.0], [1.0, 2.0])
    assert not fit.ok and fit.n_peaks == 0


def test_fit_rejects_mismatched_series():
    # Longer times paired peaks with the wrong times; shorter ones raised
    # IndexError.
    for times, values in (([0, 1, 2, 3, 4], [1, 2, 1]), ([0, 1, 2], [1, 2, 1, 2, 1])):
        with pytest.raises(ValueError, match="shape"):
            fit_damping_rate(times, values)


def test_run_records_and_initial_field():
    cfg = small_config(n_steps=4, n_x=64)  # default x resolution for the field
    res = run(cfg)
    assert len(res.records) == 5
    assert res.records[0].t == 0.0
    # E_max(0) = perturbation / wave_number up to FE error
    assert abs(res.records[0].e_max - 0.02) <= 1e-3 * 0.02
    for rec in res.records:
        assert abs(rec.e_total - (0.5 * rec.m2 + rec.e_field)) <= 1e-15 * abs(rec.e_total)


@pytest.mark.parametrize("bc", ["absorbing", "periodic"])
@pytest.mark.parametrize("levels", [1, 2])
def test_force_slow_path_matches_hybrid(levels, bc):
    # --force-slow-path sends every cell of every velocity sweep through the
    # generalized overlap blocks; a whole run agrees with the hybrid sweep
    # to round-off.  The momentum m1 is round-off zero here, so it is
    # measured against the mass m0 (unit thermal speed).
    runs = []
    for force_slow in (False, True):
        sim = Simulation(SimConfig(dim=3, n_base=4, levels=levels, degree=2, n_x=8, dt=0.2,
                                   perturbation=0.05, n_steps=3, bc=bc, force_slow=force_slow))
        runs.append((sim.run().records, sim.f))
    (hybrid, f_hybrid), (slow, f_slow) = runs
    assert np.abs(f_slow - f_hybrid).max() <= 1e-12 * np.abs(f_hybrid).max()
    assert len(slow) == len(hybrid) == 4
    for a, b in zip(hybrid, slow):
        for field in fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            scale = a.m0 if field.name == "m1" else abs(x)
            assert abs(y - x) <= 1e-12 * scale, field.name


def test_run_nonfinite_aborts_with_step_index():
    cfg = small_config(n_steps=2)
    with np.errstate(invalid="ignore"):
        sim = Simulation(cfg)
        sim.f[:] = np.inf
        with pytest.raises(RuntimeError, match="step 0"):
            sim.run()
        sim = Simulation(cfg)
        sim.step()  # healthy first step
        sim.f[:] = np.nan
        with pytest.raises(RuntimeError, match="step"):
            sim.run()


def test_nonfinite_field_stops_step_with_index():
    sim = Simulation(small_config(n_steps=3))
    sim.step()
    sim.f[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="field at step 2"):
        sim.step()


def test_run_1v_benchmark_smoke():
    # Reduced resolution keeps this quick; the rate is still in the right
    # neighborhood even though the acceptance run uses 64 cells.
    cfg = SimConfig(dim=1, n_base=32, levels=0, degree=3, n_steps=150)
    res = run(cfg)
    assert res.fit.ok
    assert abs((res.fit.rate - LANDAU_RATE_K05) / LANDAU_RATE_K05) <= 0.2
