import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from actsens import (
    cli,
    odecore,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    simplified_zajac_solution,
    synthesize_targets,
)
from actsens.cli import main
from actsens.presets import BUILTIN_MODELS, HATZE_START_OFFSET, SCENARIO_ROWS


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return header, np.atleast_2d(data)


def test_analytic_command_writes_closed_forms(tmp_path):
    out = tmp_path / "run"
    assert main(["analytic", "--output", str(out)]) == 0
    header, data = _read_csv(out / "analytic_sensitivities.csv")
    assert header == ["t_seconds", "S_sigma", "S_tau", "S_q_Z0"]
    t = data[:, 0]
    assert t[0] == 0.0 and t[-1] == pytest.approx(0.2)
    oracle = simplified_zajac_sensitivities(t, 1.0, 0.025, 0.05)
    assert np.allclose(data[:, 1], oracle["sigma"], atol=1e-12)
    assert np.allclose(data[:, 2], oracle["tau"], atol=1e-12)
    assert (out / "manifest.txt").exists()


def test_analytic_manifest_names_the_simplified_models_parameters(tmp_path):
    out = tmp_path / "run"
    assert main(["analytic", "--sigma", "1/3", "--output", str(out)]) == 0
    manifest = dict(line.split(" = ", 1)
                    for line in (out / "manifest.txt").read_text().splitlines())
    names = simplified_zajac_model().canonical_order
    assert set(names) == set(manifest) - {"command", "t_end", "points", "version", "files",
                                          "degenerate_points"}
    assert [float(manifest[n]) for n in names] == [0.05, 1 / 3, 0.025]


@pytest.mark.filterwarnings("error")
def test_analytic_command_at_a_short_time_constant(tmp_path):
    # t/tau reaches 2000 on the default grid: the closed forms stay finite,
    # with S_sigma at its limit 1, and numpy warns of no overflow
    out = tmp_path / "run"
    assert main(["analytic", "--tau", "1e-4", "--output", str(out)]) == 0
    _, data = _read_csv(out / "analytic_sensitivities.csv")
    assert np.all(np.isfinite(data))
    assert data[-1, 1] == 1.0 and data[-1, 3] == 0.0


@pytest.mark.filterwarnings("error")
def test_analytic_command_without_stimulation(tmp_path):
    # at sigma = 0 the state underflows beyond t/tau ~ 745, yet every row
    # holds the shares' constant values
    out = tmp_path / "run"
    assert main(["analytic", "--sigma", "0", "--tau", "1e-4", "--output", str(out)]) == 0
    _, data = _read_csv(out / "analytic_sensitivities.csv")
    assert np.all(data[:, 1] == 0.0) and np.all(data[:, 3] == 1.0)
    assert np.allclose(data[:, 2], data[:, 0] / 1e-4, rtol=1e-12)


@pytest.mark.filterwarnings("error")
def test_analytic_command_without_an_initial_value(tmp_path):
    # q(0) = q_init = 0, and q(t) > 0 after: only the t = 0 row is undefined
    out = tmp_path / "run"
    assert main(["analytic", "--q-init", "0", "--output", str(out)]) == 0
    _, data = _read_csv(out / "analytic_sensitivities.csv")
    assert np.isnan(data[0, 1:]).all() and np.isfinite(data[1:]).all()
    assert "degenerate_points = 1" in (out / "manifest.txt").read_text().splitlines()


def test_analytic_counts_its_undefined_rows_as_local_sens_does(tmp_path):
    # without stimulation or initial value q(t) = 0 at every grid time
    point = ["--sigma", "0", "--q-init", "0", "--points", "5"]
    assert main(["analytic", *point, "--output", str(tmp_path / "analytic")]) == 0
    assert main(["local-sens", "--model", "simplified-zajac", *point,
                 "--output", str(tmp_path / "local")]) == 0
    _, data = _read_csv(tmp_path / "analytic" / "analytic_sensitivities.csv")
    assert np.isnan(data[:, 1:]).all()
    for run in ("analytic", "local"):
        manifest = (tmp_path / run / "manifest.txt").read_text().splitlines()
        assert "degenerate_points = 5" in manifest, run


def test_simulate_command(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--model", "hatze", "--scenario", "iii",
                 "--nu", "2", "--t-end", "0.2", "--points", "21",
                 "--output", str(out)])
    assert code == 0
    header, data = _read_csv(out / "state.csv")
    assert header == ["t_seconds", "q"]
    assert data.shape == (21, 2)
    assert data[0, 1] == pytest.approx(0.2)  # scenario (iii) initial activity
    manifest = (out / "manifest.txt").read_text()
    assert "rho_c = 9.1" in manifest  # nu=2 pairing applied


@pytest.mark.parametrize("row", list(SCENARIO_ROWS))
def test_simulate_simplified_zajac_matches_closed_form(tmp_path, row):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "simplified-zajac", "--scenario", row,
                 "--output", str(out)]) == 0
    _, data = _read_csv(out / "state.csv")
    q_init, sigma = SCENARIO_ROWS[row]
    exact = simplified_zajac_solution(data[:, 0], sigma, 0.025, q_init)
    # criterion 1's bound for the same closed form; the default tolerances
    # give at most 1.1e-7 here (row iv)
    assert np.max(np.abs(data[:, 1] - exact)) < 1e-6


def test_local_sens_columns_follow_canonical_order(tmp_path):
    out = tmp_path / "run"
    code = main(["local-sens", "--model", "zajac", "--scenario", "ii",
                 "--beta", "1", "--t-end", "0.2", "--points", "41",
                 "--second-order", "--output", str(out)])
    assert code == 0
    header, data = _read_csv(out / "s_rel.csv")
    assert header == ["t_seconds", "S_q_Z0", "S_sigma", "S_q0", "S_tau", "S_beta"]
    assert data[0, 1] == pytest.approx(1.0)  # initial-value share starts at one
    header2, _ = _read_csv(out / "r_rel.csv")
    assert header2[0] == "t_seconds"
    assert header2[1] == "R_sigma*sigma"
    assert len(header2) == 1 + 10  # upper triangle of 4 parameters
    names = ("sigma", "q0", "tau", "beta")
    assert header2[1:] == [f"R_{names[i]}*{names[j]}" for i in range(4) for j in range(i, 4)]


def test_simulate_help_lists_the_override_flags_in_order(capsys):
    # each flag is a canonical name in lower case; --q-init sets the initial value
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    text = capsys.readouterr().out
    flags = re.findall(r"^  (--[\w-]+) \w+\s+override\s+the\s+scenario's", text, re.M)
    assert flags == ["--sigma", "--q0", "--tau", "--m", "--rho-c", "--ell-rho", "--ell-cerel",
                     "--q-init"]


@pytest.mark.parametrize("model", list(BUILTIN_MODELS))
def test_canonical_order_names_the_columns_and_the_bounds(tmp_path, model):
    spec = BUILTIN_MODELS[model].model()
    assert tuple(BUILTIN_MODELS[model].bounds) == spec.canonical_order
    out = tmp_path / "run"
    assert main(["local-sens", "--model", model, "--t-end", "0.05", "--points", "3",
                 "--output", str(out)]) == 0
    header, _ = _read_csv(out / "s_rel.csv")
    assert header == ["t_seconds", *(f"S_{n}" for n in spec.canonical_order)]


def test_local_sens_accepts_fractional_beta(tmp_path):
    out = tmp_path / "run"
    code = main(["local-sens", "--model", "zajac", "--scenario", "i",
                 "--beta", "1/3", "--t-end", "0.1", "--points", "11",
                 "--output", str(out)])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "beta = 0.3333333333333333" in manifest


def test_global_sens_rerun_is_byte_identical(tmp_path):
    args = ["global-sens", "--model", "hatze", "--preset", "paper-bounds",
            "--n", "16", "--seed", "1", "--t-end", "0.2", "--points", "6"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert (out1 / "global.csv").read_bytes() == (out2 / "global.csv").read_bytes()
    header, _ = _read_csv(out1 / "global.csv")
    assert header[:2] == ["t_seconds", "V"]
    assert "VBS_q_H0" in header and "TSI_ell_CErel" in header


def test_global_sens_custom_bounds_file(tmp_path):
    bounds = tmp_path / "bounds.cfg"
    bounds.write_text("q_Z0 = 0.01,1\nsigma = 0,1\nq0 = 0.001,0.05\n"
                      "tau = 0.01,0.05\nbeta = 0.1,1\n")
    out = tmp_path / "run"
    code = main(["global-sens", "--model", "zajac", "--preset", str(bounds),
                 "--n", "8", "--seed", "2", "--t-end", "0.1", "--points", "3",
                 "--output", str(out)])
    assert code == 0
    assert (out / "global.csv").exists()


def test_manifests_and_fit_table_print_settings_at_fourteen_digits(tmp_path, monkeypatch):
    bounds = tmp_path / "bounds.cfg"
    bounds.write_text("q_Z0 = 0.01,1\nsigma = 0,1\nq0 = 0.001,0.005\n"
                      "tau = 0.0123456789,0.05\nbeta = 0.1,1\n")
    assert main(["global-sens", "--model", "zajac", "--preset", str(bounds), "--n", "4",
                 *_TINY_GRID, "--output", str(tmp_path / "global")]) == 0
    manifest = (tmp_path / "global" / "manifest.txt").read_text()
    assert ";tau:[0.0123456789,0.05];" in manifest
    targets = tmp_path / "targets.csv"
    targets.write_text("gamma,shift_mm\n0.55,0.4\n0.123456789,0.9\n")
    monkeypatch.setattr("actsens.optimize.DEFAULT_BELL_STARTS", (0.323456789,))
    assert main(["optimize", "--targets", str(targets), "--nu", "2.123456789", "--kind",
                 "bell", "--output", str(tmp_path / "fit")]) == 0
    (row,) = (tmp_path / "fit" / "fit_table.csv").read_text().splitlines()[1:]
    assert row.startswith("2.123456789,bell,0.323456789,")
    manifest = (tmp_path / "fit" / "manifest.txt").read_text().splitlines()
    assert "levels = 0.55,0.123456789" in manifest


def test_optimize_command(tmp_path):
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    tfile = tmp_path / "targets.csv"
    tfile.write_text("gamma,shift_mm\n" + "\n".join(
        f"{g},{s}" for g, s in zip(targets.levels, targets.shifts_mm)) + "\n")
    out = tmp_path / "run"
    code = main(["optimize", "--targets", str(tfile), "--nu", "3",
                 "--kind", "bell", "--rho0-start", "6e4", "--output", str(out)])
    assert code == 0
    lines = (out / "fit_table.csv").read_text().strip().splitlines()
    assert lines[0] == "nu,kind,width_start,width,rho0,error_mm,iterations,status"
    assert len(lines) == 4  # three start rows
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[3]) - 0.32) < 0.01
        assert fields[-1] == "ok"
    manifest = (out / "manifest.txt").read_text().splitlines()
    evals = [line for line in manifest if line.startswith("objective_evals = ")]
    assert len(evals) == 1 and int(evals[0].split(" = ")[1]) > 0
    # the values the fit used, not the text they were given as
    assert "rho0_start = 60000.0" in manifest and "ell_opt = 14.8" in manifest
    assert "undetermined_fits = 0" in manifest


def test_optimize_manifest_counts_undetermined_fits(tmp_path):
    # targets on which the (nu = 2, parabola) cell determines only one
    # combination of width and rho0: every start ends undetermined
    targets = synthesize_targets(width=0.29729915352635605, rho0=48251.625410948334,
                                 nu=3.0, kind="bell")
    tfile = tmp_path / "targets.csv"
    tfile.write_text("gamma,shift_mm\n" + "".join(
        f"{g!r},{s!r}\n" for g, s in zip(targets.levels, targets.shifts_mm)))
    out = tmp_path / "run"
    assert main(["optimize", "--targets", str(tfile), "--nu", "2", "--kind", "parabola",
                 "--output", str(out)]) == 0
    lines = (out / "fit_table.csv").read_text().splitlines()
    assert lines[0] == "nu,kind,width_start,width,rho0,error_mm,iterations,status"
    assert all(line.endswith(",ok") for line in lines[1:]) and len(lines) == 4
    assert "undetermined_fits = 3" in (out / "manifest.txt").read_text().splitlines()


def test_optimize_requires_targets(tmp_path):
    assert main(["optimize", "--output", str(tmp_path / "x")]) == 2


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# preset overrides\nsigma = 0.3\nt_end = 0.1\npoints = 11\n")
    out = tmp_path / "run"
    code = main(["simulate", "--model", "zajac", "--scenario", "ii",
                 "--sigma", "0.5", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "sigma = 0.5" in manifest  # explicit flag beats config
    assert "t_end = 0.1" in manifest  # config beats default


@pytest.mark.parametrize("argv, zero", [
    (["--model", "zajac", "--q-init", "0", "--q0", "0"], "q_Z0,q0"),
    (["--model", "simplified-zajac", "--q-init", "0"], "q_Z0"),
], ids=["zajac", "simplified-zajac"])
def test_manifest_lists_each_zero_entry_of_the_point(tmp_path, argv, zero):
    # a zero initial value writes an identically zero S column, as a zero
    # dynamic parameter does, and is named with it
    out = tmp_path / "run"
    assert main(["local-sens", *argv, *_TINY_GRID, "--output", str(out)]) == 0
    assert f"zero_params = {zero}" in (out / "manifest.txt").read_text().splitlines()


@pytest.mark.parametrize("text, second", [("false", False), ("TRUE", True)])
def test_config_booleans_are_parsed(tmp_path, capsys, text, second):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"second_order = {text}\nplot = false\nt_end = 0.1\npoints = 3\n")
    out = tmp_path / "run"
    assert main(["local-sens", "--config", str(cfg), "--output", str(out)]) == 0
    assert (out / "r_rel.csv").exists() == second
    assert f"second_order = {second}" in (out / "manifest.txt").read_text().splitlines()
    # plot = false: no plot, and no attempt at one
    assert not (out / "s_rel.pdf").exists() and "plot" not in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key = 1\n")
    code = main(["simulate", "--config", str(cfg),
                 "--output", str(tmp_path / "x")])
    assert code == 2


def test_unknown_model_exits_with_config_error(tmp_path, capsys):
    # flag values outside their choices get the JSON record of a file value
    for argv in (["simulate", "--model", "nosuch"], ["simulate", "--scenario", "v"],
                 ["global-sens", "--sampler", "sobol"]):
        out = tmp_path / "x"
        assert main(argv + ["--output", str(out)]) == 2, argv
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and argv[-1] in record["message"], argv
        assert not out.exists()


@pytest.mark.parametrize("argv, text, line", [
    (["simulate", "--config", "{path}"], "sigma = 0.3\nt_end = 0.1\nsigma = 0.5\n", 3),
    (["global-sens", "--model", "zajac", "--preset", "{path}", "--n", "4"],
     "q_Z0 = 0.01,1\nsigma = 0,1\nq0 = 0.001,0.05\ntau = 0.01,0.05\nbeta = 0.1,1\n"
     "q_Z0 = 0.5,0.6\n", 6),
], ids=["config", "bounds-file"])
def test_repeated_key_in_a_file_exits_2(tmp_path, capsys, argv, text, line):
    path = tmp_path / "input-file"
    path.write_text(text)
    out = tmp_path / "x"
    argv = [a.format(path=path) for a in argv]
    assert main(argv + ["--points", "3", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and f"input-file:{line}: key " in err and "repeats line 1" in err
    assert not out.exists()


@pytest.mark.parametrize("model, start", [("zajac", 0.01), ("hatze", 0.01 + HATZE_START_OFFSET)])
def test_row_i_starts_at_an_overridden_basic_activity(tmp_path, model, start):
    out = tmp_path / "run"
    assert main(["simulate", "--model", model, "--scenario", "i", "--q0", "0.01",
                 "--t-end", "0.1", "--points", "3", "--output", str(out)]) == 0
    _, data = _read_csv(out / "state.csv")
    assert data[0, 1] == start
    assert "q0 = 0.01" in (out / "manifest.txt").read_text().splitlines()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_every_setting_as_a_flag(command):
    # run as a program: a table-generated parser can fail only when help is rendered
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-m", "actsens.cli", command, "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    for key in cli._COMMANDS[command][1]:
        assert re.search(rf"^ +--{key.replace('_', '-')}\b", done.stdout, re.M), key


@pytest.mark.parametrize("argv, config, line", [
    (["simulate", "--tau", "-1"], None, None),
    (["simulate", "--model", "zajac", "--beta", "0"], None, None),
    (["simulate", "--model", "hatze", "--q-init", "2"], None, None),
    (["simulate", "--model", "simplified-zajac", "--sigma", "1.5"], None, None),
    (["simulate", "--sigma", "abc"], None, None),
    (["global-sens", "--n", "1"], None, None),
    (["simulate", "--t-end", "-1"], None, None),
    (["simulate", "--t-end", "0"], None, None),
    (["simulate", "--points", "1"], None, None),
    (["analytic", "--points", "1"], None, None),
    (["simulate"], "t_end = abc\npoints = 3\n", 1),
    (["simulate"], "t_end = 0.1\npoints = 2.5\n", 2),
    (["global-sens"], "n = many\nt_end = 0.1\npoints = 3\n", 1),
    (["global-sens", "--n", "4"], "seed = x\nt_end = 0.1\npoints = 3\n", 1),
    (["global-sens", "--n", "4", "--seed", "-1"], None, None),
    (["global-sens", "--n", "4"], "sampler = sobol\nt_end = 0.1\npoints = 3\n", 1),
    (["optimize", "--nu", "1"], None, None),
    (["optimize", "--nu", "0.5"], None, None),
    (["optimize", "--rho0-start", "-1"], None, None),
    (["optimize", "--ell-opt", "0"], None, None),
    (["optimize"], "nu = 1\n", 1),
    (["simulate"], "sigma = 0.5\ntau = -1\n", 2),
    (["simulate", "--model", "hatze"], "q_init = 2\n", 1),
    (["simulate"], "plot = maybe\nt_end = 0.1\npoints = 3\n", 1),
    (["local-sens"], "t_end = 0.1\npoints = 3\nsecond_order = 0\n", 3),
    (["simulate", "--points", "2.5"], None, None),
    (["simulate", "--model", "hatze", "--beta", "1/3"], None, None),
    (["simulate", "--model", "simplified-zajac", "--beta", "1/3"], None, None),
    (["simulate", "--model", "zajac", "--nu", "2"], None, None),
    (["simulate", "--model", "zajac", "--m", "5"], None, None),
    (["simulate", "--model", "simplified-zajac", "--q0", "0.01"], None, None),
    (["simulate", "--model", "zajac"], "t_end = 0.1\npoints = 3\nrho_c = 8\n", 3),
    (["global-sens", "--n", "4"], "t_end = 0.1\npoints = 3\ntau = 0.03\n", 3),
    (["analytic"], "t_end = 0.1\npoints = 3\nm = 5\n", 3),
    (["optimize"], "sigma = 0.3\n", 1),
    (["simulate", "--model", "zajac", "--tau", "inf"], None, None),
    (["simulate", "--model", "zajac", "--beta", "inf"], None, None),
    (["simulate", "--model", "hatze", "--m", "inf"], None, None),
    (["simulate", "--model", "hatze", "--ell-rho", "inf"], None, None),
    (["simulate", "--model", "hatze"], "t_end = 0.1\npoints = 3\nell_cerel = nan\n", 3),
    (["analytic", "--tau", "0"], None, None),
    (["analytic", "--tau", "-0.025"], None, None),
    (["analytic", "--tau", "inf"], None, None),
    (["analytic", "--sigma", "nan"], None, None),
    (["analytic", "--q-init", "-1"], None, None),
    (["analytic"], "t_end = 0.1\npoints = 3\ntau = 0\n", 3),
    (["simulate", "--model", "hatze", "--ell-rho", "0.9", "--ell-cerel", "0.5"], None, None),
    (["global-sens", "--model", "hatze", "--n", "4", "--preset", "ell-rho-bounds.cfg"],
     None, None),
], ids=["negative-tau", "zero-beta", "hatze-q-init-above-one",
        "simplified-sigma-above-one", "sigma-not-a-number", "global-n-one",
        "negative-t-end", "zero-t-end", "one-point", "analytic-one-point",
        "config-t-end-not-a-number", "config-points-not-an-integer",
        "config-n-not-a-number", "config-seed-not-a-number", "negative-seed",
        "config-unknown-sampler", "optimize-nu-one", "optimize-nu-below-one",
        "optimize-negative-rho0-start", "optimize-zero-ell-opt", "config-optimize-nu-one",
        "config-negative-tau", "config-hatze-q-init-above-one", "config-plot-maybe",
        "config-second-order-not-a-boolean", "points-flag-not-an-integer",
        "hatze-beta", "simplified-beta", "zajac-nu", "zajac-m", "simplified-q0",
        "config-zajac-rho-c", "config-global-tau", "config-analytic-m", "config-optimize-sigma",
    "infinite-tau", "infinite-beta", "hatze-infinite-m", "hatze-infinite-ell-rho",
    "config-hatze-nan-ell-cerel", "analytic-zero-tau", "analytic-negative-tau",
    "analytic-infinite-tau", "analytic-nan-sigma", "analytic-negative-q-init",
    "config-analytic-zero-tau", "hatze-ell-rho-below-one", "bounds-ell-rho-reaching-one"])
def test_invalid_input_exits_2(tmp_path, capsys, argv, config, line):
    out = tmp_path / "x"
    if argv[0] == "optimize":
        # a well-formed targets file, so only the case's own value is wrong
        targets = tmp_path / "targets.csv"
        targets.write_text("gamma,shift_mm\n0.55,0.4\n0.28,0.9\n")
        argv = argv + ["--kind", "bell", "--targets", str(targets)]
    if "ell-rho-bounds.cfg" in argv:  # hatze_rho is not positive for ell_rho <= 1
        bounds = _bounds_file(tmp_path, "hatze", ell_rho=(1.0, 3.6))
        argv = [str(bounds) if a == "ell-rho-bounds.cfg" else a for a in argv]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    elif argv[0] != "optimize":  # optimize takes no grid flags
        # the case's own flags come last, so they win over these
        argv = argv[:1] + ["--t-end", "0.1", "--points", "3"] + argv[1:]
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    if line is not None:  # a bad value from the config file names its line
        assert f"run.cfg:{line}:" in err
    assert not out.exists()  # a rejected command creates no output directory


def _bounds_file(tmp_path, model, **ranges):
    """A model's built-in bounds as a bounds file, with ``ranges`` replaced."""
    bounds = dict(BUILTIN_MODELS[model].bounds, **ranges)
    path = tmp_path / f"{model}-bounds.cfg"
    path.write_text("".join(f"{n} = {lo!r},{hi!r}\n" for n, (lo, hi) in bounds.items()))
    return path


def test_bounds_reaching_past_the_pole_are_redrawn(tmp_path):
    # ell_CErel reaching into the ell_rho range would put 57 of the 288 rows
    # past the pole; row validity rejects them, so they are redrawn
    path = _bounds_file(tmp_path, "hatze", ell_CErel=(0.4, 3.0))
    out = tmp_path / "x"
    assert main(["global-sens", "--model", "hatze", "--preset", str(path), "--n", "16",
                 "--t-end", "0.1", "--points", "3", "--output", str(out)]) == 0
    assert np.all(np.isfinite(np.loadtxt(out / "global.csv", delimiter=",", skiprows=1)))


def test_stiff_rows_fail_with_one_json_line(tmp_path, capsys):
    # tau ~ 1e-300 makes f0 overflow the first-step guess's square; the rows
    # fail in the solver and stderr holds only the SamplingError record
    path = _bounds_file(tmp_path, "zajac", tau=(1e-300, 2e-300))
    assert main(["global-sens", "--model", "zajac", "--preset", str(path), "--n", "16",
                 "--t-end", "0.1", "--points", "3", "--output", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "SamplingError"


def test_tiny_time_constant_fails_with_one_json_line(tmp_path, capsys):
    # tau = 1e-120 overflows the rate factors' Hessian, which order 1
    # discards; the solve's step underflows and stderr holds only its record
    out = tmp_path / "x"
    assert main(["local-sens", "--model", "zajac", "--scenario", "ii", "--tau", "1e-120",
                 "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "StepSizeUnderflow"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "zajac", "--tau", "1e-9"],
    ["simulate", "--model", "hatze", "--m", "1e9"],
    ["local-sens", "--model", "zajac", "--tau", "1e-9", "--second-order"],
], ids=["zajac-tau", "hatze-m", "zajac-tau-second-order"])
def test_stiff_point_ends_at_the_step_budget(tmp_path, capsys, monkeypatch, argv):
    # stability holds the explicit step near tau (or 1/m); a budget of 1,000
    # instead of the default keeps the test short
    monkeypatch.setattr(odecore, "MAX_STEP_ATTEMPTS", 1000)
    out = tmp_path / "x"
    assert main(argv + ["--output", str(out)]) == 3
    record = json.loads(capsys.readouterr().err)  # one record
    assert record["error"] == "StepBudgetExceeded"
    assert record["message"].startswith("1000 step attempts reached only t=")
    assert not out.exists()


@pytest.mark.parametrize("model, ranges, lines, rule", [
    ("hatze", {"ell_rho": (2.2, 2.9), "ell_CErel": (3.0, 3.5)}, (8, 7),
     "ell_CErel must lie in (0, ell_rho)"),
    ("zajac", {"q_Z0": (0.01, 0.02), "q0": (0.03, 0.05)}, (3, 1),
     "q0 must lie in [0, q_Z0]"),
], ids=["hatze-all-past-the-pole", "zajac-q0-above-q-init"])
def test_bounds_without_a_valid_row_exit_2(tmp_path, capsys, monkeypatch, model, ranges,
                                           lines, rule):
    # rejected from the bounds alone: no row is drawn
    monkeypatch.setattr(cli, "analyze_global", None)
    path = _bounds_file(tmp_path, model, **ranges)
    out = tmp_path / "x"
    assert main(["global-sens", "--model", model, "--preset", str(path), "--n", "16",
                 "--t-end", "0.1", "--points", "3", "--output", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)  # one record
    assert record["error"] == "ConfigError"
    for line in lines:  # both parameters' lines
        assert f"{path.name}:{line}:" in record["message"]
    assert record["message"].endswith(f"hold no valid row: {rule}")  # the file's names
    assert not out.exists()


def test_halton_past_its_stride_exits_2(tmp_path, capsys, monkeypatch):
    # past 1,000,003 rows a halton redraw would repeat another row's point;
    # rejected from the settings alone: no row is drawn
    monkeypatch.setattr(cli, "analyze_global", None)
    out = tmp_path / "x"
    assert main(["global-sens", "--sampler", "halton", "--n", "1000004",
                 "--output", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)  # one record
    assert record["error"] == "ConfigError"
    assert record["message"] == ("n must be at most 1000003 with the halton sampler, "
                                 "got 1000004")
    assert not out.exists()


_ZAJAC_BOUNDS = ["q_Z0 = 0.01,1", "sigma = 0,1", "q0 = 0.001,0.05", "tau = 0.01,0.05",
                 "beta = 0.1,1"]


@pytest.mark.parametrize("entry", [
    "q_Z0 = 0.01", "q_Z0 = 0.01,1,2", "q_Z0 = 1,0.01", "q_Z0 = abc,1",
    "tau = 0.01,inf", "tau = -1,0.05", "tau = nan,0.05",
], ids=["one-value", "three-values", "lower-above-upper", "non-numeric",
        "infinite-tau", "negative-tau", "nan-tau"])
def test_malformed_bounds_file_exits_2(tmp_path, capsys, entry):
    name = entry.split(" = ")[0]
    lines = [entry if line.startswith(name + " ") else line for line in _ZAJAC_BOUNDS]
    bounds = tmp_path / "bounds.cfg"
    bounds.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x"
    assert main(["global-sens", "--model", "zajac", "--preset", str(bounds),
                 "--n", "4", "--points", "3", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert f"bounds.cfg:{lines.index(entry) + 1}:" in err  # the bad entry's line
    assert not out.exists()


@pytest.mark.parametrize("model", list(BUILTIN_MODELS))
def test_paper_bounds_as_a_file_match_the_preset(tmp_path, model):
    # the built-in bounds pass the bounds-file range check, hatze's open
    # q_H0 < 1 included: the sampler never draws an upper end
    bounds = tmp_path / "bounds.cfg"
    bounds.write_text("".join(f"{n} = {lo!r},{hi!r}\n"
                              for n, (lo, hi) in BUILTIN_MODELS[model].bounds.items()))
    args = ["global-sens", "--model", model, "--n", "4", "--seed", "3", "--points", "3"]
    assert main(args + ["--output", str(tmp_path / "file"), "--preset", str(bounds)]) == 0
    assert main(args + ["--output", str(tmp_path / "preset")]) == 0
    csv = [(tmp_path / run / "global.csv").read_bytes() for run in ("file", "preset")]
    assert csv[0] == csv[1]


@pytest.mark.parametrize("argv, bad", [
    (["simulate", "--bogus", "1"], "--bogus"),
    (["simulate", "--points"], "--points"),
    (["nosuch"], "nosuch"),
], ids=["unknown-flag", "missing-value", "unknown-command"])
def test_usage_error_is_one_json_config_record(capsys, argv, bad):
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err)  # one record, no usage text
    assert record["error"] == "ConfigError" and bad in record["message"]


def test_the_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # one parser serves every call of a process; each call starts from its own flags
    assert cli.build_parser() is cli.build_parser()
    base = ["local-sens", "--model", "zajac", "--t-end", "0.05", "--points", "5"]
    assert main(base + ["--second-order", "--output", str(tmp_path / "second")]) == 0
    assert main(base + ["--output", str(tmp_path / "first")]) == 0
    assert (tmp_path / "second" / "r_rel.csv").exists()
    assert not (tmp_path / "first" / "r_rel.csv").exists()
    assert "second_order = False" in (tmp_path / "first" / "manifest.txt").read_text()

    capsys.readouterr()
    assert main(["simulate", "--bogus", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigError"

    config = tmp_path / "points.cfg"
    config.write_text("points = 7\n")
    sim = ["simulate", "--t-end", "0.05"]
    assert main(sim + ["--config", str(config), "--output", str(tmp_path / "cfg")]) == 0
    assert main(sim + ["--output", str(tmp_path / "plain")]) == 0
    assert _read_csv(tmp_path / "cfg" / "state.csv")[1].shape[0] == 7
    assert _read_csv(tmp_path / "plain" / "state.csv")[1].shape[0] == 501


def test_write_csv_matches_savetxt_byte_for_byte(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    data = np.array([[0.0, -0.0, math.nan, math.inf],
                     [-math.inf, tiny, -5e-320, 2.2250738585072014e-308],
                     [1e300, -1e-300, 1.0 / 3.0, 0.1]])
    header = ["t_seconds", "a", "b", "c"]
    cli.write_csv(tmp_path / "fast.csv", header, list(data.T))
    np.savetxt(tmp_path / "ref.csv", data, fmt=cli._FLOAT_FMT, delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("argv", [["--version"], ["simulate", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


@pytest.mark.parametrize("content", [None, b"\xff\xfe not text"], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{path}"],
    ["optimize", "--targets", "{path}"],
    ["global-sens", "--model", "zajac", "--preset", "{path}", "--n", "4"],
], ids=["config", "targets", "bounds-file"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input-file"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "x"
    argv = [a.format(path=path) for a in argv]
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "input-file" in err
    assert not out.exists()


@pytest.mark.parametrize("rows, line", [
    ("0.55,0.4\n0.28\n", 3),
    ("0.55,0.4\n0.28,0.9,7\n", 3),
    ("0.55,0.4,\n0.28,0.9\n", 2),
    ("0.55,0.4\n0.28,far\n", 3),
    ("0.55,0.4\n0.28,0.9\n0.55,1.0\n", 4),
    ("0.55,0.4\n1.5,0.9\n", 3),
    ("", None),
], ids=["one-column", "three-columns", "trailing-comma", "non-numeric-shift",
        "duplicate-level", "level-above-one", "no-rows"])
def test_malformed_targets_file_exits_2(tmp_path, capsys, rows, line):
    targets = tmp_path / "targets.csv"
    targets.write_text("gamma,shift_mm\n" + rows)
    out = tmp_path / "x"
    assert main(["optimize", "--targets", str(targets), "--nu", "3", "--kind", "bell",
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert f"targets.csv:{line}:" in err if line else "targets.csv:" in err
    assert not out.exists()


def test_numerical_failure_exits_3(tmp_path, capsys):
    # relative CE length beyond the pole makes the model undefined
    code = main(["simulate", "--model", "hatze", "--scenario", "ii",
                 "--ell-cerel", "3.5", "--output", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert "PoleViolation" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["simulate", "--points", "100000000000"],
                                  ["global-sens", "--n", "100000000000"]],
                         ids=["simulate", "global-sens"])
def test_running_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, argv):
    # an array too large to allocate is one JSON record, not a traceback; the
    # patched grid raises what numpy would, so nothing large is allocated
    def too_large(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "make_grid", too_large)
    out = tmp_path / "x"
    assert main(argv + ["--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [{
        "error": "MemoryError", "message": "Unable to allocate 745. GiB for an array",
        "command": argv[0]}]
    assert not out.exists()


_EVERY_COMMAND = {
    "analytic": ["analytic", "--points", "3"],
    "simulate": ["simulate", "--t-end", "0.01", "--points", "3"],
    "local-sens": ["local-sens", "--t-end", "0.01", "--points", "3"],
    "global-sens": ["global-sens", "--n", "2", "--t-end", "0.01", "--points", "3"],
    "optimize": ["optimize", "--nu", "3", "--kind", "bell", "--targets", "{targets}"],
}


@pytest.mark.parametrize("output", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", list(_EVERY_COMMAND))
def test_unusable_output_directory_exits_2(tmp_path, capsys, monkeypatch, command, output):
    # mkdir's FileExistsError or NotADirectoryError becomes one ConfigError record
    # naming the path, not a traceback, and before the command's work starts
    def unreached(*args, **kwargs):
        raise AssertionError("the command ran before its output setting was checked")

    for name in ("analyze", "analyze_global", "run_table"):
        monkeypatch.setattr(cli, name, unreached)
    (tmp_path / "afile").write_text("in the way\n")
    targets = tmp_path / "targets.csv"
    targets.write_text("gamma,shift_mm\n0.55,0.4\n0.28,0.9\n")
    argv = [a.format(targets=targets) for a in _EVERY_COMMAND[command]]
    out = tmp_path / output
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ConfigError" and record["command"] == command
    assert record["message"].startswith(f"cannot create output directory {str(out)!r}: ")
    assert (tmp_path / "afile").read_text() == "in the way\n"


def test_output_under_a_directory_without_write_access_exits_2(tmp_path, capsys, monkeypatch):
    # the nearest existing ancestor must be writable; the check creates nothing
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "new" / "sub"
    assert main(["simulate", "--t-end", "0.01", "--points", "3", "--output", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["message"] == (f"cannot create output directory {str(out)!r}: "
                                 f"{os.strerror(errno.EACCES)}")
    assert not (tmp_path / "new").exists()


def test_unusable_output_directory_from_a_config_file_names_its_line(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"points = 3\noutput = {tmp_path / 'afile'}\n")
    assert main(["simulate", "--t-end", "0.01", "--config", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["message"].startswith(f"{cfg}:2: cannot create output directory ")


def test_unusable_output_directory_exits_2_as_a_program(tmp_path):
    (tmp_path / "afile").write_text("")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "actsens.cli", "simulate", "--t-end", "0.01",
                           "--points", "3", "--output", str(tmp_path / "afile")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["error"] == "ConfigError"


def test_hatze_exponent_without_a_pairing_needs_rho_c(tmp_path, capsys):
    out = tmp_path / "x"
    argv = ["simulate", "--model", "hatze", "--nu", "2.5", "--t-end", "0.01", "--points", "3"]
    assert main(argv + ["--output", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"] == "no rho_c pairing for nu=2.5; pass --rho-c"
    assert not out.exists()
    assert main(argv + ["--rho-c", "8", "--output", str(out)]) == 0


def test_config_line_without_an_equals_sign_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 3\n# a comment\nt_end 0.01\n")
    assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"] == f"{cfg}:3: expected 'key = value', got 't_end 0.01'"


def test_bounds_file_missing_a_parameter_exits_2(tmp_path, capsys):
    bounds = tmp_path / "bounds.cfg"
    bounds.write_text("\n".join(_ZAJAC_BOUNDS[:-1]) + "\n")  # no beta
    out = tmp_path / "x"
    assert main(["global-sens", "--model", "zajac", "--preset", str(bounds),
                 "--n", "2", "--points", "3", "--output", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{bounds}: bounds file must give one 'lower,upper' "
                                        "pair for each of ['q_Z0', ")
    assert "'beta'" in record["message"]
    assert not out.exists()


def test_global_sens_manifest_counts_resampled_rows(tmp_path, monkeypatch):
    # the first ensemble solve loses one base row; it is redrawn and solved again
    real = cli.family_evaluator

    def one_failure(model):
        evaluate = real(model)
        calls = []

        def flaky(rows, grid):
            calls.append(rows.shape[0])
            out = evaluate(rows, grid)
            if len(calls) == 1:
                out[:, 3] = np.nan
            return out

        return flaky

    monkeypatch.setattr(cli, "family_evaluator", one_failure)
    out = tmp_path / "run"
    assert main(["global-sens", "--model", "zajac", "--n", "8", "--seed", "2",
                 "--t-end", "0.1", "--points", "3", "--output", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "resampled_rows = 1" in manifest
    assert f"evaluations = {2 * 8 * 6 + 2 * 6}" in manifest


_TINY_GRID = ["--t-end", "0.05", "--points", "3"]
_LOCAL_KEYS = {"second_order", "degenerate_points", "zero_params"}
_ZAJAC_NAMES = BUILTIN_MODELS["zajac"].model().canonical_order
_HATZE_NAMES = BUILTIN_MODELS["hatze"].model().canonical_order


@pytest.mark.parametrize("argv, files, keys", [
    (["analytic"], ["analytic_sensitivities.csv"],
     {"q_Z0", "sigma", "tau", "degenerate_points"}),
    (["simulate", "--model", "zajac"], ["state.csv"], {"model", *_ZAJAC_NAMES}),
    (["local-sens", "--model", "hatze"], ["state.csv", "s_rel.csv"],
     {"model", *_HATZE_NAMES, *_LOCAL_KEYS}),
    (["local-sens", "--model", "zajac", "--second-order"],
     ["state.csv", "s_rel.csv", "r_rel.csv"], {"model", *_ZAJAC_NAMES, *_LOCAL_KEYS}),
    (["global-sens", "--model", "zajac", "--n", "4"], ["global.csv"],
     {"model", "preset", "n", "seed", "sampler", "evaluations", "resampled_rows",
      "undefined_points", "bounds"}),
], ids=["analytic", "simulate", "local-sens", "local-sens-second-order", "global-sens"])
def test_csv_command_output_contract(tmp_path, capsys, argv, files, keys):
    # the files written, the manifest's keys and files entry, one stdout line
    out = tmp_path / "run"
    assert main(argv + _TINY_GRID + ["--output", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.txt"])
    manifest = dict(line.split(" = ", 1)
                    for line in (out / "manifest.txt").read_text().splitlines())
    assert set(manifest) == keys | {"command", "t_end", "points", "version", "files"}
    assert manifest["command"] == argv[0] and manifest["version"] == cli.__version__
    assert manifest["files"] == ";".join(files)
    assert (manifest["t_end"], manifest["points"]) == ("0.05", "3")
    line = f"wrote {out / files[0]}" if len(files) == 1 else f"wrote {', '.join(files)} to {out}"
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("argv, plots", [
    (["analytic"], [("analytic_sensitivities.pdf", ["S_sigma", "|S_tau|", "S_q_Z0"],
                     "relative sensitivity")]),
    (["simulate", "--model", "hatze"], [("state.pdf", ["q"], "activity q")]),
    (["local-sens", "--model", "zajac"],
     [("s_rel.pdf", [f"S_{n}" for n in _ZAJAC_NAMES], "relative sensitivity")]),
    (["local-sens", "--model", "hatze", "--second-order"],
     [("s_rel.pdf", [f"S_{n}" for n in _HATZE_NAMES], "relative sensitivity")]),
    (["global-sens", "--model", "zajac", "--n", "4"],
     [("vbs.pdf", [f"VBS_{n}" for n in _ZAJAC_NAMES], "variance-based sensitivity"),
      ("tsi.pdf", [f"TSI_{n}" for n in _ZAJAC_NAMES], "total sensitivity index")]),
], ids=["analytic", "simulate", "local-sens", "local-sens-second-order", "global-sens"])
def test_plot_requests_name_their_files_curves_and_axes(tmp_path, monkeypatch, argv, plots):
    calls = []
    monkeypatch.setattr(cli, "_plot", lambda path, times, curves, ylabel:
                        calls.append((path, times, curves, ylabel)))
    out = tmp_path / "run"
    assert main(argv + _TINY_GRID + ["--output", str(tmp_path / "plain")]) == 0
    assert calls == []  # no plot without --plot
    assert main(argv + _TINY_GRID + ["--plot", "--output", str(out)]) == 0
    assert [(p, list(c), y) for p, _, c, y in calls] == [(out / n, c, y) for n, c, y in plots]
    for _, times, curves, _ in calls:
        assert np.array_equal(times, np.linspace(0.0, 0.05, 3))
        assert all(np.shape(series) == (3,) for series in curves.values())
    if argv[0] == "analytic":  # the plot shows |S_tau|, the CSV the signed S_tau
        _, data = _read_csv(out / "analytic_sensitivities.csv")
        printed = [float(cli._FLOAT_FMT % v) for v in calls[0][2]["|S_tau|"]]
        assert np.array_equal(printed, np.abs(data[:, 2]))


@pytest.mark.parametrize("argv", [
    ["local-sens", "--model", "hatze", "--second-order"],
    ["global-sens", "--model", "hatze", "--n", "8", "--seed", "3"],
], ids=["local-sens-second-order", "global-sens"])
def test_csv_values_are_the_results_at_fourteen_digits(tmp_path, monkeypatch, argv):
    # every value printed is the in-memory value rounded to 14 significant
    # digits: within half a unit in the 14th digit (5e-14 relative) plus the
    # parse's half ulp of it
    written, write_csv = {}, cli.write_csv

    def recording_write_csv(path, header, columns):
        written[path.name] = np.column_stack(columns)
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", recording_write_csv)
    out = tmp_path / "run"
    assert main(argv + ["--t-end", "0.1", "--points", "21", "--output", str(out)]) == 0
    assert written
    for name, values in written.items():
        _, data = _read_csv(out / name)
        rounded = np.vectorize(lambda v: float(cli._FLOAT_FMT % v))(values)
        assert np.array_equal(data, rounded, equal_nan=True), name
        normal = np.abs(values) >= np.finfo(float).tiny
        assert normal.any(), name
        err = np.abs(data - values)[normal]
        assert np.all(err <= 6e-14 * np.abs(values[normal])), name


def test_plots_are_emitted(tmp_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "run"
    code = main(["local-sens", "--model", "zajac", "--scenario", "ii",
                 "--t-end", "0.1", "--points", "11", "--plot",
                 "--output", str(out)])
    assert code == 0
    assert (out / "s_rel.pdf").exists()
