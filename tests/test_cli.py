import numpy as np
import pytest

from actsens import simplified_zajac_sensitivities, synthesize_targets
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


def test_numerical_failure_exits_3(tmp_path, capsys):
    # relative CE length beyond the pole makes the model undefined
    code = main(["simulate", "--model", "hatze", "--scenario", "ii",
                 "--ell-cerel", "3.5", "--output", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert "PoleViolation" in err


def test_plots_are_emitted(tmp_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "run"
    code = main(["local-sens", "--model", "zajac", "--scenario", "ii",
                 "--t-end", "0.1", "--points", "11", "--plot",
                 "--output", str(out)])
    assert code == 0
    assert (out / "s_rel.pdf").exists()
