import numpy as np
import pytest

from actsens import cli, simplified_zajac_sensitivities, synthesize_targets
from actsens.cli import main


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


def test_optimize_command(tmp_path):
    targets = synthesize_targets(width=0.32, rho0=3.25e4, nu=3.0, kind="bell")
    tfile = tmp_path / "targets.csv"
    tfile.write_text("gamma,shift_mm\n" + "\n".join(
        f"{g},{s}" for g, s in zip(targets.levels, targets.shifts_mm)) + "\n")
    out = tmp_path / "run"
    code = main(["optimize", "--targets", str(tfile), "--nu", "3",
                 "--kind", "bell", "--output", str(out)])
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


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key = 1\n")
    code = main(["simulate", "--config", str(cfg),
                 "--output", str(tmp_path / "x")])
    assert code == 2


def test_unknown_model_exits_with_config_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "nosuch", "--output", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--tau", "-1"], None),
    (["simulate", "--model", "zajac", "--beta", "0"], None),
    (["simulate", "--model", "hatze", "--q-init", "2"], None),
    (["simulate", "--model", "simplified-zajac", "--sigma", "1.5"], None),
    (["simulate", "--sigma", "abc"], None),
    (["global-sens", "--n", "1"], None),
    (["simulate", "--t-end", "-1"], None),
    (["simulate", "--t-end", "0"], None),
    (["simulate", "--points", "1"], None),
    (["analytic", "--points", "1"], None),
    (["simulate"], "t_end = abc\npoints = 3\n"),
    (["simulate"], "t_end = 0.1\npoints = 2.5\n"),
    (["global-sens"], "n = many\nt_end = 0.1\npoints = 3\n"),
    (["global-sens", "--n", "4"], "seed = x\nt_end = 0.1\npoints = 3\n"),
    (["global-sens", "--n", "4", "--seed", "-1"], None),
    (["global-sens", "--n", "4"], "sampler = sobol\nt_end = 0.1\npoints = 3\n"),
    (["optimize", "--nu", "1"], None),
    (["optimize", "--nu", "0.5"], None),
    (["optimize", "--rho0-start", "-1"], None),
    (["optimize", "--ell-opt", "0"], None),
    (["optimize"], "nu = 1\n"),
], ids=["negative-tau", "zero-beta", "hatze-q-init-above-one",
        "simplified-sigma-above-one", "sigma-not-a-number", "global-n-one",
        "negative-t-end", "zero-t-end", "one-point", "analytic-one-point",
        "config-t-end-not-a-number", "config-points-not-an-integer",
        "config-n-not-a-number", "config-seed-not-a-number", "negative-seed",
        "config-unknown-sampler", "optimize-nu-one", "optimize-nu-below-one",
        "optimize-negative-rho0-start", "optimize-zero-ell-opt", "config-optimize-nu-one"])
def test_invalid_input_exits_2(tmp_path, capsys, argv, config):
    out = tmp_path / "x"
    if argv[0] == "optimize":
        # a well-formed targets file, so only the case's own value is wrong
        targets = tmp_path / "targets.csv"
        targets.write_text("gamma,shift_mm\n0.55,0.4\n0.28,0.9\n")
        argv = argv + ["--kind", "bell", "--targets", str(targets)]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    elif argv[0] != "optimize":  # optimize takes no grid flags
        # the case's own flags come last, so they win over these
        argv = argv[:1] + ["--t-end", "0.1", "--points", "3"] + argv[1:]
    assert main(argv + ["--output", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()  # a rejected command creates no output directory


@pytest.mark.parametrize("q_z0_bounds", ["0.01", "0.01,1,2", "1,0.01"],
                         ids=["one-value", "three-values", "lower-above-upper"])
def test_malformed_bounds_file_exits_2(tmp_path, capsys, q_z0_bounds):
    bounds = tmp_path / "bounds.cfg"
    bounds.write_text(f"q_Z0 = {q_z0_bounds}\nsigma = 0,1\nq0 = 0.001,0.05\n"
                      "tau = 0.01,0.05\nbeta = 0.1,1\n")
    out = tmp_path / "x"
    assert main(["global-sens", "--model", "zajac", "--preset", str(bounds),
                 "--n", "4", "--points", "3", "--output", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


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
    ("0.55,0.4\n0.28,far\n", 3),
    ("0.55,0.4\n0.28,0.9\n0.55,1.0\n", 4),
    ("0.55,0.4\n1.5,0.9\n", 3),
    ("", None),
], ids=["one-column", "non-numeric-shift", "duplicate-level", "level-above-one",
        "no-rows"])
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
                out[3] = np.nan
            return out

        return flaky

    monkeypatch.setattr(cli, "family_evaluator", one_failure)
    out = tmp_path / "run"
    assert main(["global-sens", "--model", "zajac", "--n", "8", "--seed", "2",
                 "--t-end", "0.1", "--points", "3", "--output", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "resampled_rows = 1" in manifest
    assert f"evaluations = {2 * 8 * 6 + 2 * 6}" in manifest


def test_plots_are_emitted(tmp_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "run"
    code = main(["local-sens", "--model", "zajac", "--scenario", "ii",
                 "--t-end", "0.1", "--points", "11", "--plot",
                 "--output", str(out)])
    assert code == 0
    assert (out / "s_rel.pdf").exists()
