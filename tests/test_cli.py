"""End-to-end CLI coverage: config parsing, sweep output, compare gate."""

import math
import os
import runpy
import shutil
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import _refs as R
from disperse import SpeciesParams, Statistics, derive_scales, sweep
from disperse import cli
from disperse.cli import COMPARE_HEADER, CSV_HEADER, load_config, main, oracle_agrees
from disperse.dispersion_core import ComplexRate
from disperse.quantum_stats import K_B, PLANCK_H

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


def run_cli(args, cwd=None):
    """`python -m disperse.cli ARGS` in a fresh interpreter, so the exit
    status and any traceback reach the caller even where the console script
    is not installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "disperse.cli", *args],
                          capture_output=True, text=True, timeout=120, env=env, cwd=cwd)


def run_module(cfg, out):
    return run_cli(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"])


def tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


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


# sets every config field to a value other than its default, with a
# reduced-unit bound that does not survive a unit round trip, a multi-line
# value and an output path holding a percent sign and a space
EVERY_FIELD = DEGENERATE_SPECIES.replace("statistics = fermi", """\
statistics = fermi
spin_degeneracy = 1""") + """
[sweep]
k_min = 0.02
k_max = 0.9
n_points = 7
spacing = log
units = reduced
branches = ExactDegenerate,
    QuantumLangmuir,
    C1Corrected

[solver]
abs_tol = 1e-9
max_iter = 50

[oracle]
enabled = true
subsample = 2
n_v = 2048
dt = 0.01
t_end = 30

[hooks]
bohm_term = off

[output]
path = out %d dir
"""


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")) + ["every_field"],
                         ids=lambda p: getattr(p, "name", p))
def test_summary_reruns_byte_identical(tmp_path, monkeypatch, config):
    # both runs write to the config's own [output] path, so the rerun's
    # summary must repeat the first one exactly
    monkeypatch.chdir(tmp_path)
    if config == "every_field":
        config = write_ini(tmp_path, EVERY_FIELD)
    out = tmp_path / load_config(str(config)).out_path
    first = tmp_path / "first"
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    out.rename(first)
    assert main(["run", "--config", str(first / "summary.txt"), "--quiet"]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in out.iterdir()) and "summary.txt" in names
    for name in names:
        assert (first / name).read_bytes() == (out / name).read_bytes(), name


def test_rerun_over_longer_files_leaves_no_stale_tail(tmp_path):
    # a rerun into a directory whose files are longer than its output
    # replaces them whole; files a run creates honour the umask
    cfg = weak_sweep_ini(tmp_path)
    out = tmp_path / "out"
    old_umask = os.umask(0o027)
    try:
        assert main(["run", "--config", cfg, "--output-dir", str(out), "--quiet"]) == 0
    finally:
        os.umask(old_umask)
    want = tree_bytes(out)
    assert sorted(want) == ["ExactQuadrature.csv", "WeakSimple.csv", "summary.txt"]
    assert all(path.stat().st_mode & 0o777 == 0o640 for path in out.iterdir())
    for path in out.iterdir():
        path.write_bytes(2 * path.read_bytes() + b"stale tail")
    assert main(["run", "--config", cfg, "--output-dir", str(out), "--quiet"]) == 0
    assert tree_bytes(out) == want


def test_summary_echoes_config_text(tmp_path):
    cfg = write_ini(tmp_path, EVERY_FIELD)
    text = load_config(cfg).text
    assert "k_max = 0.9\n" in text and "path = out %d dir\n" in text
    assert "branches = ExactDegenerate,\n\tQuantumLangmuir,\n\tC1Corrected\n" in text
    defaults = load_config(weak_sweep_ini(tmp_path)).text
    assert "spacing = linear\n" in defaults and "dt = 0.005\n" in defaults


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


def per_cell_row(cfg, res):
    """A run CSV row formatted one str.format call a cell, as the CLI once
    did: the reference the one-pass file must match byte for byte."""
    r = res.k * cfg.scales.v_ch / res.rate.omega
    eps = res.rate.eta / res.rate.omega
    cells = (res.k * cfg.unit_v / cfg.unit_omega, res.rate.omega / cfg.unit_omega,
             res.rate.eta / cfg.unit_omega, res.rate.omega / res.k / cfg.unit_v,
             r, eps, res.residual_norm)
    return ",".join(["{:.16e}".format(val) for val in cells]
                    + [str(res.iterations), "true" if res.converged else "false", res.branch.name])


def test_run_rows_match_the_per_cell_format(tmp_path):
    path = write_ini(tmp_path, DEGENERATE_SPECIES + """
[sweep]
k_min = 0.01
k_max = 2.5
n_points = 12
units = reduced
branches = ExactDegenerate, ExactQuadrature, QuantumLangmuir, C1Corrected, DegenerateBohmGross, ZeroSound
""")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--output-dir", str(out), "--quiet"]) == 0
    cfg = load_config(path, str(out))
    for branch in cfg.branches:
        results = sweep(cli._k_grid(cfg), branch, cfg.species, cfg.scales, cfg.solver, bohm_term=cfg.bohm_term)
        rows = [per_cell_row(cfg, res) for res in results]
        assert (out / f"{branch.name}.csv").read_bytes() == "".join(
            line + "\n" for line in [CSV_HEADER] + rows).encode()

    # cells at the edges of the 17-digit format: an infinite, a zero and a
    # subnormal residual, a signed zero eta, no and many iterations
    base = results[5]
    synthetic = [
        replace(base, residual_norm=math.inf, converged=False),
        replace(base, residual_norm=0.0, iterations=0),
        replace(base, residual_norm=5e-324, iterations=100),
        replace(base, rate=ComplexRate(eta=-0.0, omega=base.rate.omega)),
        replace(base, rate=ComplexRate(eta=0.0, omega=base.rate.omega)),
    ]
    rows = [per_cell_row(cfg, res) for res in synthetic]
    assert "inf" in rows[0] and ",false," in rows[0] and ",100,true," in rows[2]
    assert rows[3].split(",")[2].startswith("-0.0") and rows[4].split(",")[2].startswith("0.0")
    for written in (synthetic, []):
        csv = cli._write_branch_csv(cfg, base.branch, written)
        assert Path(csv).read_bytes() == "".join(
            line + "\n" for line in [CSV_HEADER] + [per_cell_row(cfg, res) for res in written]).encode()


def test_run_unconverged_branch_exits_two(tmp_path, capsys):
    # one iteration from ExactWeak's axis seeds cannot reach 1e-14, so its
    # first point fails; ExactQuadrature's locus seed would reach it here
    cfg = weak_sweep_ini(tmp_path, extra="""
[solver]
abs_tol = 1e-14
max_iter = 1
""", branches="ExactWeak")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    assert "[INCOMPLETE]" in capsys.readouterr().out
    summary = (out / "summary.txt").read_text()
    assert "# branch ExactWeak: failed" in summary


# ---------------------------------------------------------------------------
# config and validation errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mutation, fragment", [
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\nspacing = cubic\n"
     "branches = WeakSimple\n", "sweep.spacing: cannot interpret 'cubic'"),
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
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n[solver]\ncontinuation = true\n", "solver.continuation: unknown field"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n[oracle]\ninit_shape = MaxwellianShaped\n",
     "oracle.init_shape: unknown field"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e80\nn_points = 4\n"
     "branches = WeakSimple\n", "sweep.k_max: k = 1e+80 is too large"),
    ("[sweep]\nk_min = 1e8\nk_max = inf\nn_points = 4\n"
     "branches = WeakSimple\n", "sweep.k_max: k must be positive and finite"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n[oracle]\nsubsample = 0\n", "oracle.subsample"),
    ("[sweep]\nk_min = 1e9\nk_max = 1e8\nn_points = 4\n"
     "branches = WeakSimple\n", "sweep.k_min: need 0 < k_min < k_max"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = ,\n", "sweep.branches: at least one branch required"),
    ("[sweep]\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n", "sweep.k_min: missing required field"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n[solver]\nabs_tol = -1\n", "solver: abs_tol must be positive and finite"),
    ("[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\n"
     "branches = WeakSimple\n[oracle]\ndt = 1\n", "oracle: dt (fraction of a period) must keep dt*omega below 0.1"),
])
def test_config_errors(tmp_path, capsys, mutation, fragment):
    cfg = write_ini(tmp_path, WEAK_SPECIES + mutation)
    # a mutation that loads anyway must not write into the working directory
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err


SWEEP = "[sweep]\nk_min = 1e8\nk_max = 1e9\nn_points = 4\nbranches = WeakSimple\n"


@pytest.mark.parametrize("text, fragment", [
    (WEAK_SPECIES + "mass = 1.0\n" + SWEEP, "option 'mass' in section 'species' already exists"),
    (WEAK_SPECIES + SWEEP + "[sweep]\nn_points = 5\n", "section 'sweep' already exists"),
    (WEAK_SPECIES + "heavy electrons\n" + SWEEP, "parsing errors"),
    ("mass = 1.0\n" + WEAK_SPECIES + SWEEP, "no section headers"),
    (WEAK_SPECIES.replace("density = 1e28", "density = 1e28 %") + SWEEP,
     "species.density: cannot interpret '1e28 %'"),
    ("# caf\u00e9\n" + WEAK_SPECIES + SWEEP, "can't decode byte 0xe9"),
    (WEAK_SPECIES + SWEEP + "[DEFAULT]\nn_points = 5\n", "DEFAULT: unknown section"),
    (WEAK_SPECIES + SWEEP + "[DEFAULT]\n", "DEFAULT: unknown section"),
], ids=["duplicate_key", "duplicate_section", "no_delimiter", "no_section", "percent", "latin1",
        "default_section", "empty_default_section"])
def test_malformed_config_one_line_error(tmp_path, text, fragment):
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(text.encode("latin-1"))  # configs are read as UTF-8
    proc = run_module(cfg, tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and fragment in proc.stderr


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


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # every call to main in a process parses with the same parser, so no
    # option of an earlier call may carry over: the third run names no
    # --output-dir and no --quiet, and must write to the config's own path
    # and print its progress
    cfg = write_ini(tmp_path, DEGENERATE_SPECIES + """
[sweep]
k_min = 0.1
k_max = 1.5
n_points = 6
units = reduced
branches = ExactDegenerate, DegenerateBohmGross

[output]
path = b
""")
    calls = [["run", "--config", cfg, "--quiet", "--output-dir", "a"], [], ["run", "--config", cfg],
             ["compare", "--config", str(CONFIGS / "weak_boson_small_k_compare.ini"), "--output-dir", "c",
              "--quiet"]]
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    inproc.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(inproc)
    stdouts = []
    for argv in calls:
        if argv:
            code = main(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
        printed = capsys.readouterr()
        proc = run_cli(argv, cwd=fresh)
        assert (code, printed.out, printed.err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert code == (2 if not argv else 0)
        stdouts.append(printed.out)
    assert stdouts[0] == stdouts[3] == "" and "summary -> b" in stdouts[2]
    assert sorted(os.listdir(inproc)) == ["a", "b", "c"]
    produced = tree_bytes(inproc)
    assert produced == tree_bytes(fresh)
    assert b"path = a\n" in produced["a/summary.txt"] and b"path = b\n" in produced["b/summary.txt"]


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
    (1.0, -0.05 + 0.9e-6, True),   # eta off by 0.9e-6 omega: inside the 1e-6 bound
    (1.0, -0.05 - 0.9e-6, True),
    (1.0, -0.05 + 1.1e-6, False),  # 1.1e-6 omega off: outside
    (1.0, -0.05 - 1.1e-6, False),
    (1.0, -0.05 * 1.14, False),    # 14 percent off, inside the old 15 percent bound
    (1.0, 0.05, False),            # sign disagreement
    (1.0 + 1.1e-6, -0.05, False),  # omega 1.1e-6 off
    (1.0 - 1.1e-6, -0.05, False),
    (1.0 + 0.9e-6, -0.05, True),   # omega 0.9e-6 off: inside the 1e-6 bound
    (1.0 - 0.9e-6, -0.05, True),
    (1.0009, -0.05, False),        # inside the old 1e-3 bound
    (math.nan, math.nan, False),   # a failed oracle run
])
def test_compare_gate_resolved_damping(omega_oracle, eta_oracle, agrees):
    assert oracle_agrees(1.0, -0.05, omega_oracle, eta_oracle) is agrees


def test_compare_gate_checks_eta_on_weak_and_zero_damping():
    # a small or zero solver eta gets the same absolute bound, 1e-6 omega:
    # neither a spurious damping nor a growth on an undamped root passes
    assert not oracle_agrees(1.0, -0.009, 1.0, -0.009 * 3.0)
    assert oracle_agrees(1.0, -0.009, 1.0, -0.009 + 5e-7)
    assert not oracle_agrees(1.0, -0.009, 1.0, -1e-9)
    assert oracle_agrees(1.0, 0.0, 1.0, -5e-7)
    assert oracle_agrees(1.0, 0.0, 1.0, 5e-7)
    assert oracle_agrees(1.0, 0.0, 1.0, 0.004) is False    # growing
    assert oracle_agrees(1.0, 0.0, 1.0, -1e-2) is False    # spurious damping


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


# Fermi and Bose 0.2 at y = 0.36-0.40: ten sweep points, every third, all damped
@pytest.mark.parametrize("name", ["weak_fermion_compare.ini", "weak_boson_compare.ini"])
def test_compare_shipped_config_passes(tmp_path, name):
    cfg = CONFIGS / name
    assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 4 and all(float(row[2]) < 0.0 for row in rows)


# the undamped T = 0 mode at k v_F/Omega_p = 0.9-1.2 and, where the t_end = 200
# trace runs against a kernel as long as itself, 0.05-0.15: the oracle must
# read no growth and no damping
@pytest.mark.parametrize("name", ["degenerate_compare.ini", "degenerate_small_k_compare.ini"])
def test_compare_shipped_degenerate_config_passes(tmp_path, name):
    cfg = CONFIGS / name
    assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 4 and all(float(row[2]) == 0.0 for row in rows)
    assert all(float(row[5]) <= 1e-10 and float(row[6]) <= 1e-11 * float(row[1]) for row in rows)


def test_compare_shipped_zero_sound_config_passes(tmp_path):
    # neutral T = 0 gas at kappa = 0.6-0.8: zero sound is undamped there
    cfg = CONFIGS / "zero_sound_compare.ini"
    assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 4 and all(float(row[2]) == 0.0 for row in rows)


def test_compare_shipped_quantum_sound_config_passes(tmp_path):
    # neutral T = 0 gas at kappa = 2-16, where the quantum term sets the mode:
    # the oracle's default guess follows the C1 form and reads the undamped root
    cfg = CONFIGS / "quantum_sound_compare.ini"
    assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 4 and all(float(row[2]) == 0.0 and float(row[5]) <= 1e-9 for row in rows)


def test_compare_shipped_small_k_config_passes(tmp_path):
    # Bose 0.2 at k v_th/Omega_p = 0.1-0.2: phase velocities up to 10 thermal
    # widths, past the oracle's velocity grid, still read to the solver
    cfg = CONFIGS / "weak_boson_small_k_compare.ini"
    assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 3 and all(float(row[5]) <= 1e-9 for row in rows)


def test_compare_shipped_condensation_config_passes(tmp_path):
    # Bose 0.999 at k v_th/Omega_p = 0.45-0.60 over t_end = 200, past the end
    # of g's support bound: the damped modes read to the solver
    cfg = CONFIGS / "bose_condensation_compare.ini"
    assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 3 and all(float(row[2]) < 0.0 and float(row[5]) <= 1e-9 for row in rows)


def test_compare_neutral_degenerate_mismatch(tmp_path, capsys):
    # at kappa = 0.3-0.4 the zero-sound phase velocity is within 1.6e-4 to
    # 4.3e-3 of v_F, and a t_end = 50 trace cannot part the mode from the
    # continuum edge at k v_F: the fit reads eta/omega -1.1e-3 and +2.6e-4
    # where the T = 0 root is undamped
    species = DEGENERATE_SPECIES.replace(repr(-R.Q_E), "0.0")
    unit = 2.0 * R.M_E * R.V_F / R.HBAR  # kappa = hbar k / (2 m v_F)
    cfg = write_ini(tmp_path, species + f"""
[sweep]
k_min = {0.3 * unit!r}
k_max = {0.4 * unit!r}
n_points = 2
branches = ExactDegenerate

[oracle]
enabled = true
subsample = 1
""")
    assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_compare_oracle_refusal_exits_two(tmp_path, capsys):
    # Bose gas at fugacity 1 - 5.4e-15: the solver converges, but the grid
    # that would keep the oracle's alias past its kernel's support needs ~1e9
    # velocity nodes, so the oracle refuses; the solver's row stays, with NaN
    # oracle cells
    temperature = 8564.780279696417
    species = WEAK_SPECIES.replace(repr(R.T_FERMI_02), repr(temperature)).replace("fermi", "bose")
    sc = derive_scales(SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                                     temperature=temperature, statistics=Statistics.BOSE))
    unit = sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = write_ini(tmp_path, species + f"""
[sweep]
k_min = {0.3 * unit!r}
k_max = {0.32 * unit!r}
n_points = 2
branches = ExactQuadrature

[oracle]
enabled = true
subsample = 2
""")
    assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert "DegeneracyOutOfRange: fugacity 0.99999999999999" in capsys.readouterr().err
    _, rows = read_rows(tmp_path / "out" / "compare.csv")
    assert len(rows) == 1 and math.isfinite(float(rows[0][1]))
    assert all(math.isnan(float(cell)) for cell in rows[0][3:])


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
    cfg = write_ini(tmp_path, DEGENERATE_SPECIES.replace(repr(-R.Q_E), charge) + """
[sweep]
k_min = 0.1
k_max = 0.5
n_points = 3
units = reduced
branches = QuantumLangmuir
""")
    out = tmp_path / "out"
    proc = run_module(cfg, out)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert (out / "QuantumLangmuir.csv").exists()
    else:
        assert proc.stderr.startswith("config error: species:")


def test_boson_at_condensation_exits_1_without_traceback(tmp_path):
    # T = T_c (1 + 1e-10): the fugacity solve refuses the gas, and the CLI
    # reports it as a validation error instead of dying in the sweep
    t_c = PLANCK_H**2 / (2.0 * math.pi * R.M_E * K_B) * (R.N0 / (2 * R.ZETA_32)) ** (2.0 / 3.0)
    species = WEAK_SPECIES.replace(repr(R.T_FERMI_02), repr(t_c * (1.0 + 1e-10))).replace("fermi", "bose")
    cfg = write_ini(tmp_path, species + """
[sweep]
k_min = 1e9
k_max = 2e9
n_points = 3
branches = ExactQuadrature
""")
    proc = run_module(cfg, tmp_path / "out")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("validation error: at T = ")
    assert "condens" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_example_script_runs(script, monkeypatch, capsys):
    # the worked examples import from the package namespace, so this also
    # guards the public names they use
    path = ROOT / "scripts" / script
    monkeypatch.setattr(sys, "argv", [str(path)])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
