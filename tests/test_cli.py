"""End-to-end CLI coverage: config parsing, sweep output, compare gate."""

import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import _refs as R
from disperse.cli import COMPARE_HEADER, CSV_HEADER, main, oracle_agrees

VTH_F02 = math.sqrt(R.VTH2_FERMI_02)
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"

WEAK_SPECIES = f"""\
[species]
mass = {R.M_E!r}
charge = {-R.Q_E!r}
density = 1e28
temperature = {R.T_FERMI_02!r}
statistics = fermi
"""

DEGENERATE_SPECIES = f"""\
[species]
mass = {R.M_E!r}
charge = {-R.Q_E!r}
density = 1e28
temperature = 0.0
statistics = fermi
fully_degenerate = true
"""


def write_ini(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def weak_sweep_ini(tmp_path, extra="", branches="ExactQuadrature, WeakSimple"):
    return write_ini(tmp_path, WEAK_SPECIES + f"""
[sweep]
k_min = {0.36 * R.OMEGA_P / VTH_F02!r}
k_max = {0.40 * R.OMEGA_P / VTH_F02!r}
n_points = 3
branches = {branches}
""" + extra)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_happy_path(tmp_path, capsys):
    cfg = weak_sweep_ini(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    header, rows = read_rows(out / "ExactQuadrature.csv")
    assert header == CSV_HEADER
    assert len(rows) == 3
    for row in rows:
        assert row[8] == "true" and row[9] == "ExactQuadrature"
        assert float(row[2]) < 0.0  # Landau damped at these wavelengths
    header, rows = read_rows(out / "WeakSimple.csv")
    assert len(rows) == 3 and all(float(r[2]) == 0.0 for r in rows)
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0] == "# disperse run summary (re-runnable as a config)"
    assert any(line.startswith("# branch ExactQuadrature: points 3, converged 3")
               for line in summary)
    assert "summary ->" in capsys.readouterr().out


def test_summary_reruns_byte_identical(tmp_path):
    cfg = weak_sweep_ini(tmp_path)
    out_a = tmp_path / "runA"
    out_b = tmp_path / "runB"
    assert main(["run", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert main(["run", "--config", str(out_a / "summary.txt"),
                 "--output-dir", str(out_b)]) == 0
    for name in ("ExactQuadrature.csv", "WeakSimple.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_quiet_silences_stdout(tmp_path, capsys):
    cfg = weak_sweep_ini(tmp_path, branches="WeakSimple")
    assert main(["run", "--config", cfg, "--output-dir",
                 str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_reduced_units(tmp_path):
    cfg = write_ini(tmp_path, DEGENERATE_SPECIES + """
[sweep]
k_min = 0.1
k_max = 0.5
n_points = 5
units = reduced
branches = QuantumLangmuir
""")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out), "--quiet"]) == 0
    _, rows = read_rows(out / "QuantumLangmuir.csv")
    ks = [float(r[0]) for r in rows]
    oms = [float(r[1]) for r in rows]
    assert abs(ks[0] - 0.1) < 1e-12 and abs(ks[-1] - 0.5) < 1e-12
    assert all(om >= 1.0 for om in oms)                # omega in Omega_p units
    assert oms == sorted(oms)
    for row in rows:
        vp, r = float(row[3]), float(row[4])
        assert abs(vp * r - 1.0) < 1e-12               # both in v_ch units


def test_run_unconverged_branch_exits_two(tmp_path, capsys):
    cfg = weak_sweep_ini(tmp_path, extra="""
[solver]
abs_tol = 1e-14
max_iter = 1
""", branches="ExactQuadrature")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    assert "[INCOMPLETE]" in capsys.readouterr().out
    summary = (out / "summary.txt").read_text()
    assert "# branch ExactQuadrature: failed" in summary


# ---------------------------------------------------------------------------
# config and validation errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mutation, fragment", [
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\nspacing = cubic\n"
     "branches = WeakSimple\n", "unknown spacing"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\nwobble = 3\n"
     "branches = WeakSimple\n", "sweep.wobble: unknown field"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 1\n"
     "branches = WeakSimple\n", "at least 2 points"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n[grids]\nn = 2\n", "grids: unknown section"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = ExactDegenerate\n", "requires a fully degenerate species"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n[solver]\nfd_step = 1e-7\n", "solver.fd_step: unknown field"),
])
def test_config_errors(tmp_path, capsys, mutation, fragment):
    cfg = write_ini(tmp_path, WEAK_SPECIES + mutation)
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err


def test_config_error_bad_float(tmp_path, capsys):
    cfg = write_ini(tmp_path, WEAK_SPECIES.replace(repr(R.M_E), "heavy") + """
[sweep]
k_min = 1e8
k_max = 1e9
n_points = 4
branches = WeakSimple
""")
    assert main(["run", "--config", cfg]) == 1
    assert "species.mass: cannot interpret 'heavy'" in capsys.readouterr().err


def test_config_error_nan_charge(tmp_path, capsys):
    cfg = write_ini(tmp_path, WEAK_SPECIES.replace(repr(-R.Q_E), "nan") + """
[sweep]
k_min = 1e8
k_max = 1e9
n_points = 4
branches = WeakSimple
""")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: species:") and "charge" in err


def test_config_error_neutral_without_restoring_force(tmp_path, capsys):
    cfg = write_ini(tmp_path, WEAK_SPECIES.replace(repr(-R.Q_E), "0.0") + """
[sweep]
k_min = 1e8
k_max = 1e9
n_points = 4
branches = WeakSimple

[hooks]
bohm_term = off
""")
    assert main(["run", "--config", cfg]) == 1
    assert "hooks.bohm_term" in capsys.readouterr().err


def test_config_error_reduced_units_need_charge(tmp_path, capsys):
    cfg = write_ini(tmp_path, DEGENERATE_SPECIES.replace(repr(-R.Q_E), "0.0") + """
[sweep]
k_min = 0.1
k_max = 0.5
n_points = 4
units = reduced
branches = ZeroSound
""")
    assert main(["run", "--config", cfg]) == 1
    assert "reduced units need a charged species" in capsys.readouterr().err


def test_validation_error_condensed_boson(tmp_path, capsys):
    cfg = write_ini(tmp_path, WEAK_SPECIES.replace("fermi", "bose")
                    .replace(repr(R.T_FERMI_02), "5000.0") + """
[sweep]
k_min = 1e8
k_max = 1e9
n_points = 4
branches = WeakSimple
""")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "2.612375" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# shipped configs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_config_runs_clean(tmp_path, config):
    assert main(["run", "--config", str(config), "--output-dir",
                 str(tmp_path / "out"), "--quiet"]) == 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_requires_oracle_enabled(tmp_path, capsys):
    cfg = weak_sweep_ini(tmp_path)
    assert main(["compare", "--config", cfg]) == 1
    assert "compare requires oracle: set [oracle] enabled = true" \
        in capsys.readouterr().err


def test_compare_requires_exact_branch(tmp_path, capsys):
    cfg = weak_sweep_ini(tmp_path, extra="""
[oracle]
enabled = true
""", branches="WeakSimple, WeakBiquadratic")
    assert main(["compare", "--config", cfg]) == 1
    assert "compare requires an exact branch" in capsys.readouterr().err


@pytest.mark.parametrize("omega_oracle, eta_oracle, agrees", [
    (1.0, -0.05 * 1.14, True),     # eta 14 percent off: inside the 15 percent bound
    (1.0, -0.05 * 0.86, True),
    (1.0, -0.05 * 1.16, False),    # 16 percent off: outside
    (1.0, -0.05 * 0.84, False),
    (1.0, 0.05, False),            # sign disagreement
    (1.021, -0.05, False),         # omega 2.1 percent off
    (1.019, -0.05, True),
])
def test_compare_gate_resolved_damping(omega_oracle, eta_oracle, agrees):
    assert oracle_agrees(1.0, -0.05, omega_oracle, eta_oracle) is agrees


def test_compare_gate_skips_eta_magnitude_below_resolution():
    # solver |eta| below 1 percent of omega: only omega and the sign count
    assert oracle_agrees(1.0, -0.009, 1.0, -0.009 * 3.0)
    assert oracle_agrees(1.0, -0.009, 1.0, -1e-9)
    assert not oracle_agrees(1.0, -0.009, 1.0, 0.009)
    assert oracle_agrees(1.0, 0.0, 1.0, 0.004)     # undamped root: sign is noise


def test_compare_happy_path(tmp_path, capsys):
    cfg = write_ini(tmp_path, WEAK_SPECIES + f"""
[sweep]
k_min = {0.38 * R.OMEGA_P / VTH_F02!r}
k_max = {0.40 * R.OMEGA_P / VTH_F02!r}
n_points = 2
branches = ExactQuadrature, WeakSimple

[oracle]
enabled = true
subsample = 2
t_end = 200.0
""")
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output-dir", str(out)]) == 0
    header, rows = read_rows(out / "compare.csv")
    assert header == COMPARE_HEADER
    assert len(rows) == 1  # two sweep points, subsample keeps the first
    rel_om = float(rows[0][5])
    assert rel_om < 0.02
    assert float(rows[0][2]) < 0.0 and float(rows[0][4]) < 0.0
    assert "[ok]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

@pytest.mark.skipif(shutil.which("disperse") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    cfg = write_ini(tmp_path, DEGENERATE_SPECIES + """
[sweep]
k_min = 0.1
k_max = 0.5
n_points = 3
units = reduced
branches = QuantumLangmuir
""")
    out = tmp_path / "out"
    proc = subprocess.run(
        ["disperse", "run", "--config", cfg, "--output-dir", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "QuantumLangmuir.csv").exists()


@pytest.mark.parametrize("charge, code", [(repr(-R.Q_E), 0), ("nan", 1)])
def test_module_entry_point_exit_code(tmp_path, charge, code):
    # runs main() behind `python -m disperse.cli` in a fresh interpreter, so
    # the exit status reaches the shell even where the console script is
    # not installed
    cfg = write_ini(tmp_path, DEGENERATE_SPECIES.replace(repr(-R.Q_E), charge) + """
[sweep]
k_min = 0.1
k_max = 0.5
n_points = 3
units = reduced
branches = QuantumLangmuir
""")
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "disperse.cli", "run", "--config", cfg,
         "--output-dir", str(out), "--quiet"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert (out / "QuantumLangmuir.csv").exists()
    else:
        assert proc.stderr.startswith("config error: species:")
