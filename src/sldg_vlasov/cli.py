"""Batch command-line front end: run a benchmark, emit CSV, summary, and plot script."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .driver import LANDAU_RATE_K05, RunResult, SimConfig, run
from .sldg1d import ABSORBING, PERIODIC

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_NO_PEAKS = 4

CSV_HEADER = "t,emax,m0,m1,m2,e_field,e_total"

_UNIFORM_BASES = (3, 4, 5, 6, 8)
_AMR_BASES = (3, 4)
TABLE2_PRESETS = {
    f"q{p}-{nb}-{lev}": (p, nb, lev)
    for p in (3, 4, 5)
    for nb, lev in [(nb, 0) for nb in _UNIFORM_BASES]
    + [(nb, lev) for nb in _AMR_BASES for lev in (1, 2)]
}

# The fields a Table-2 preset sets, and the flags that set them one by one.
_PRESET_FLAGS = {"degree": "--p", "n_base": "--Nb", "levels": "--L"}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sldg-vlasov",
        description="Semi-Lagrangian DG Vlasov-Poisson benchmark runner.",
    )
    ap.add_argument("--dv", dest="dim", type=int, default=SimConfig.dim,
                    help="velocity dimensions (1 or 3)")
    ap.add_argument("--Nb", dest="n_base", type=int, default=SimConfig.n_base,
                    help="base velocity cells per dimension")
    ap.add_argument("--L", dest="levels", type=int, default=SimConfig.levels,
                    help="velocity AMR levels")
    ap.add_argument("--R", dest="radius", type=float, default=SimConfig.radius,
                    help="velocity domain radius")
    ap.add_argument("--p", dest="degree", type=int, default=SimConfig.degree,
                    help="velocity DG degree")
    ap.add_argument("--Nx", dest="n_x", type=int, default=SimConfig.n_x, help="spatial cells")
    ap.add_argument("--px", dest="degree_x", type=int, default=SimConfig.degree_x,
                    help="spatial DG degree")
    ap.add_argument("--k", dest="wave_number", type=float, default=SimConfig.wave_number,
                    help="perturbation wave number")
    ap.add_argument("--alpha", dest="perturbation", type=float, default=SimConfig.perturbation,
                    help="perturbation amplitude")
    ap.add_argument("--dt", type=float, default=SimConfig.dt, help="time step")
    ap.add_argument("--steps", dest="n_steps", type=int, default=SimConfig.n_steps,
                    help="number of time steps")
    ap.add_argument("--bc", choices=[ABSORBING, PERIODIC], default=SimConfig.bc,
                    help="velocity boundary mode")
    ap.add_argument("--force-slow-path", dest="force_slow", action="store_true",
                    help="route every cell through the generalized-overlap path")
    ap.add_argument("--table2", metavar="ROW",
                    help="preset q<p>-<Nb>-<L>, e.g. q5-4-0")
    ap.add_argument("--csv", default="run.csv", help="time-series output path")
    ap.add_argument("--plot-script", default="plot_emax.py",
                    help="where to write the E_max plot script")
    ap.add_argument("--summary", default=None, help="optional summary file path")
    return ap


def parse_config(argv) -> tuple[SimConfig, argparse.Namespace]:
    ap = build_parser()
    # Preset fields start at None and keep it unless their flag is given;
    # SimConfig supplies the defaults of those left at None.
    ns = ap.parse_args(argv, namespace=argparse.Namespace(**dict.fromkeys(_PRESET_FLAGS)))
    if ns.table2 is not None:
        key = ns.table2.lower()
        if key not in TABLE2_PRESETS:
            raise ValueError(f"unknown preset {ns.table2!r}; try e.g. q5-4-0")
        given = [flag for name, flag in _PRESET_FLAGS.items() if getattr(ns, name) is not None]
        if given:
            raise ValueError(f"--table2 sets the degree, base cells and levels; "
                             f"it conflicts with {', '.join(given)}")
        ns.degree, ns.n_base, ns.levels = TABLE2_PRESETS[key]
    cfg = SimConfig(**{f.name: getattr(ns, f.name) for f in fields(SimConfig)
                       if getattr(ns, f.name, None) is not None}).validate()
    return cfg, ns


def write_csv(path, records) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                ",".join(
                    f"{v:.17e}"
                    for v in (r.t, r.e_max, r.m0, r.m1, r.m2, r.e_field, r.e_total)
                )
                + "\n"
            )


def summarize(result: RunResult) -> dict:
    fit = result.fit
    rate = fit.rate if fit.ok else "---"
    # The analytic reference rate is known for k = 0.5 only.
    if fit.ok and result.config.wave_number == 0.5:
        rate_error_pct = abs((fit.rate - LANDAU_RATE_K05) / LANDAU_RATE_K05) * 100.0
    else:
        rate_error_pct = "---"
    return {
        "gamma": rate,
        "rate_error_pct": rate_error_pct,
        "n_peaks": fit.n_peaks,
        "mass_error": result.mass_error,
        "energy_drift": result.energy_drift,
        "cells": result.n_cells,
        "ips": result.n_ips,
        "wall_time_s": result.wall_time,
    }


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Semilog E_max history with envelope fit and detected peaks.
import numpy as np
import matplotlib.pyplot as plt

data = np.genfromtxt({csv!r}, delimiter=",", names=True)
t, emax = data["t"], data["emax"]

fig, ax = plt.subplots(figsize=(7, 4.5))
ax.semilogy(t, emax, "-", lw=1.2, label="E_max")
peak_t = np.array({peak_t})
peak_v = np.array({peak_v})
if peak_t.size:
    ax.semilogy(peak_t, peak_v, "kv", ms=7, label="peaks")
gamma = {gamma}
intercept = {intercept}
if gamma is not None:
    tt = np.linspace(peak_t[0], peak_t[-1], 50)
    ax.semilogy(tt, np.exp(intercept + gamma * tt), "k--",
                label=f"fit: gamma = {{gamma:.4f}}")
ax.set_xlabel("t")
ax.set_ylabel("E_max")
ax.legend()
ax.grid(True, which="both", alpha=0.3)
fig.tight_layout()
fig.savefig({png!r}, dpi=150)
print("wrote", {png!r})
"""


def write_plot_script(path, csv_path, fit) -> None:
    png = os.path.splitext(str(path))[0] + ".png"
    text = _PLOT_TEMPLATE.format(
        csv=str(csv_path),
        peak_t=np.asarray(fit.peak_times).tolist(),
        peak_v=np.asarray(fit.peak_values).tolist(),
        gamma="None" if fit.rate is None else repr(fit.rate),
        intercept="None" if fit.intercept is None else repr(fit.intercept),
        png=png,
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg, ns = parse_config(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run(cfg)
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        write_csv(ns.csv, result.records)
        write_plot_script(ns.plot_script, ns.csv, result.fit)
        text = json.dumps(summarize(result), indent=2)
        print(text)
        if ns.summary:
            with open(ns.summary, "w", newline="\n") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    return EXIT_OK if result.fit.ok else EXIT_NO_PEAKS


if __name__ == "__main__":
    sys.exit(main())
