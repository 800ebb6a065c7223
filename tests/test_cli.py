import ast
import json
import re

import numpy as np
import pytest

from sldg_vlasov.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_NO_PEAKS,
    EXIT_OK,
    TABLE2_PRESETS,
    main,
    parse_config,
    summarize,
    write_plot_script,
)
from sldg_vlasov.driver import LANDAU_RATE_K05, DampingFit, RunResult, SimConfig

FAST_ARGS = ["--dv", "1", "--Nb", "16", "--p", "2", "--Nx", "16", "--steps", "3"]


def test_defaults():
    cfg, _ = parse_config([])
    assert cfg.radius == 6.0
    assert cfg.n_x == 64
    assert cfg.degree_x == 2
    assert cfg.wave_number == 0.5
    assert cfg.perturbation == 0.01
    assert cfg.dt == 0.1
    assert cfg.dim == 3 and cfg.n_base == 4 and cfg.levels == 0


def test_defaults_match_simconfig():
    assert parse_config([])[0] == SimConfig()


def _fitted_result(wave_number):
    fit = DampingFit(rate=1.1 * LANDAU_RATE_K05, intercept=0.0, n_peaks=3,
                     peak_times=[1.0, 2.0, 3.0], peak_values=[1.0, 0.9, 0.8])
    return RunResult(config=SimConfig(wave_number=wave_number), records=[], fit=fit,
                     mass_error=0.0, energy_drift=0.0, n_cells=64, n_ips=4096,
                     wall_time=0.0)


def test_rate_error_only_against_k05_reference():
    # The analytic reference rate is for k = 0.5; another k has no reference.
    assert summarize(_fitted_result(0.5))["rate_error_pct"] == pytest.approx(10.0)
    summary = summarize(_fitted_result(0.4))
    assert summary["gamma"] == 1.1 * LANDAU_RATE_K05
    assert summary["rate_error_pct"] == "---"


def test_table2_preset():
    cfg, _ = parse_config(["--table2", "q5-4-0"])
    assert (cfg.degree, cfg.n_base, cfg.levels) == (5, 4, 0)
    cfg, _ = parse_config(["--table2", "q3-4-1"])
    assert (cfg.degree, cfg.n_base, cfg.levels) == (3, 4, 1)
    assert "q4-8-0" in TABLE2_PRESETS and "q4-8-1" not in TABLE2_PRESETS


@pytest.mark.parametrize("extra,named", [
    (["--p", "3", "--L", "2"], "--p, --L"),
    (["--Nb", "4"], "--Nb"),
])
def test_table2_with_a_flag_it_sets_exits_config(extra, named, capsys):
    # A preset fixes the degree, base cells and levels, so a flag setting one
    # of them too is refused, even at the preset's own value.
    with pytest.raises(ValueError, match=f"conflicts with {named}$"):
        parse_config(["--table2", "q5-4-0"] + extra)
    assert main(["--table2", "q5-4-0"] + extra) == EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_bad_preset_exits_config():
    assert main(["--table2", "q9-9-9"]) == EXIT_CONFIG


def test_unknown_flag_exits_config(capsys):
    assert main(["--not-a-flag"]) == EXIT_CONFIG
    capsys.readouterr()


def test_invalid_nb_exits_config():
    assert main(["--Nb", "0"]) == EXIT_CONFIG


@pytest.mark.parametrize("flag,value,field", [
    ("--p", "9", "degree"),
    ("--px", "0", "degree_x"),
    ("--Nx", "3", "n_x"),
    ("--dt", "nan", "dt"),
    ("--dt", "inf", "dt"),
    ("--R", "nan", "radius"),
    ("--k", "inf", "wave_number"),
])
def test_invalid_value_exits_config_naming_field(flag, value, field, capsys):
    # Rejected by SimConfig.validate before any set-up runs.
    assert main(FAST_ARGS + [flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {field} must")


def test_run_writes_outputs(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    plot = tmp_path / "plot.py"
    summary = tmp_path / "summary.json"
    code = main(FAST_ARGS + ["--steps", "60", "--csv", str(csv),
                             "--plot-script", str(plot), "--summary", str(summary)])
    out = capsys.readouterr().out
    assert code == EXIT_OK

    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 60 + 2  # header + t=0 row + 60 steps
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0
    assert abs(float(row0[1]) - 0.02) <= 2e-3  # alpha/k at modest resolution
    # every value is %.17e scientific notation: 17 digits after the point
    for tok in lines[1].split(","):
        mantissa = tok.split("e")[0]
        assert len(mantissa.split(".")[1]) == 17

    data = json.loads(summary.read_text())
    assert set(data) >= {"gamma", "rate_error_pct", "n_peaks", "mass_error",
                         "energy_drift", "cells", "ips", "wall_time_s"}
    assert data["cells"] == 16
    assert json.loads(out)["cells"] == 16

    script = plot.read_text()
    assert "semilogy" in script and "out.csv" in script


def test_csv_mass_column_constant(tmp_path):
    csv = tmp_path / "run.csv"
    assert main(FAST_ARGS + ["--steps", "60", "--bc", "periodic",
                             "--csv", str(csv),
                             "--plot-script", str(tmp_path / "p.py")]) == EXIT_OK
    rows = np.genfromtxt(csv, delimiter=",", names=True)
    m0 = rows["m0"]
    assert np.abs(m0 - m0[0]).max() <= 1e-11 * abs(m0[0])


def test_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(FAST_ARGS + ["--csv", str(path),
                                 "--plot-script", str(tmp_path / "p.py")]) in (
            EXIT_OK, EXIT_NO_PEAKS
        )
    assert a.read_bytes() == b.read_bytes()


def test_insufficient_peaks_sentinel(tmp_path, capsys):
    # Three steps cannot contain two envelope peaks.
    csv = tmp_path / "short.csv"
    summary = tmp_path / "s.json"
    code = main(FAST_ARGS + ["--csv", str(csv), "--plot-script", str(tmp_path / "p.py"),
                             "--summary", str(summary)])
    capsys.readouterr()
    assert code == EXIT_NO_PEAKS
    assert csv.exists()
    data = json.loads(summary.read_text())
    assert data["gamma"] == "---"
    assert data["rate_error_pct"] == "---"


def test_unwritable_path_exits_runtime(tmp_path):
    code = main(FAST_ARGS + ["--csv", str(tmp_path / "no" / "dir" / "x.csv"),
                             "--plot-script", str(tmp_path / "p.py")])
    assert code == 3


def test_overflowing_shift_exits_runtime(tmp_path, capsys):
    # speed*dt/width far beyond 2**53 cells has no meaningful shift; the run
    # stops in set-up instead of advecting by a wrapped integer.
    code = main(["--dv", "1", "--Nb", "8", "--Nx", "8", "--steps", "3", "--dt", "1e300",
                 "--bc", "periodic", "--csv", str(tmp_path / "r.csv"),
                 "--plot-script", str(tmp_path / "p.py")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_force_slow_and_workers_flags(capsys):
    cfg, _ = parse_config(["--force-slow-path", "--dv", "1"])
    assert cfg.force_slow and cfg.workers == 1 and cfg.dim == 1
    # The solver is single-threaded; --workers is gone.
    assert main(FAST_ARGS + ["--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("script,png", [
    ("./plot", "./plot.png"),
    ("out.d/plot", "out.d/plot.png"),
    ("plot_emax.py", "plot_emax.png"),
])
def test_plot_script_png_path(tmp_path, monkeypatch, script, png):
    # Only the file name's own extension is replaced: a dot in a directory
    # name or a leading "./" is part of the path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.d").mkdir()
    fit = DampingFit(None, None, 0, np.empty(0), np.empty(0))
    write_plot_script(script, "run.csv", fit)
    saved = re.search(r"fig\.savefig\((.+), dpi=150\)", (tmp_path / script).read_text())
    assert ast.literal_eval(saved.group(1)) == png


def test_plot_script_runs(tmp_path):
    pytest.importorskip("matplotlib")
    import subprocess
    import sys

    csv = tmp_path / "r.csv"
    plot = tmp_path / "plot_emax.py"
    assert main(FAST_ARGS + ["--steps", "60", "--csv", str(csv),
                             "--plot-script", str(plot)]) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, str(plot)], cwd=tmp_path, capture_output=True, text=True,
        env={"MPLBACKEND": "Agg", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "plot_emax.png").exists()
