"""End-to-end CLI runs in subprocesses: determinism, exit codes, schemas."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from child_env import child_env
from ritusfw import cli, field_profiles
from ritusfw.cli import RunConfig, load_config, run
from ritusfw.errors import ConfigurationError

RFW = [sys.executable, "-m", "ritusfw.cli"]


def run_cli(*args, cwd):
    return subprocess.run(RFW + list(args), capture_output=True, text=True,
                          env=child_env(), cwd=cwd, timeout=300)


def write_config(path, **overrides):
    cfg = {
        "profile": {"kind": "uniform", "B": 1.0},
        "grid": {"N": 256},
        "n_max": 3,
        "tolerances": {"eig": 1e-4, "residual": 1e-3},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_two_identical_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    for sub in ("a", "b"):
        proc = run_cli("spectrum", "--config", str(cfg), "--out",
                       str(tmp_path / sub), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    rep_a = (tmp_path / "a" / "report.json").read_bytes()
    rep_b = (tmp_path / "b" / "report.json").read_bytes()
    assert rep_a == rep_b
    csv_a = (tmp_path / "a" / "spectrum.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "spectrum.csv").read_bytes()


def test_report_contents_and_csv_schema(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["command"] == "spectrum"
    assert "version" in report
    assert report["config"]["grid"]["N"] == 256
    ks = report["results"]["sigma_plus"]
    # at N=256 the zero mode resolves to ~1e-7, outside the exact-zero clamp
    assert abs(ks[0]) < 1e-6
    assert abs(ks[1] - 2.0) < 1e-3
    header = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[0]
    assert header == "sigma,n,k"


def test_tolerance_violation_exits_one_with_report(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       tolerances={"eig": 1e-4, "residual": 1e-12})
    proc = run_cli("verify-ritus", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "fail"
    assert not report["checks"]["intertwining"]["pass"]


def test_malformed_config_exits_two_without_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("spectrum", "--config", str(bad), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert "config" in proc.stderr.lower() or "malformed" in proc.stderr.lower()


def test_unknown_config_key_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"N": 256}, "unknown_knob": 3}))
    proc = run_cli("spectrum", "--config", str(bad), cwd=tmp_path)
    assert proc.returncode == 2
    assert "unknown_knob" in proc.stderr


def test_unknown_command_exits_two(tmp_path):
    proc = run_cli("frobnicate", cwd=tmp_path)
    assert proc.returncode == 2


def test_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), "--eB", "2.0", "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["profile"]["B"] == 2.0
    assert abs(report["results"]["sigma_plus"][1] - 4.0) < 1e-2


def test_verify_ritus_command(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", grid={"N": 512})
    proc = run_cli("verify-ritus", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    levels = report["results"]["levels"]
    assert [row["n"] for row in levels] == [0, 1, 2, 3]
    header = (tmp_path / "out" / "levels.csv").read_text().splitlines()[0]
    assert header == "n,k,p0,py,E_D"


def test_tabulated_verify_ritus_passes(tmp_path):
    # W = x tabulated on [-12, 12] at the default N, n_max and tolerances:
    # the WKB walls inside the table keep level 8's intertwining below 1e-5
    table = tmp_path / "W.csv"
    table.write_text("x,W\n" + "".join(f"{x / 10!r},{x / 10!r}\n" for x in range(-120, 121)))
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)},
                       grid={"N": 1024}, n_max=8, tolerances={"eig": 1e-6, "residual": 1e-5})
    proc = run_cli("verify-ritus", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["checks"]["intertwining"]["pass"]


def test_stdout_report_when_no_out_dir(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "spectrum"


# the six mass cases keep the command as their id; the others run under `all`
BAD_CONFIGS = [pytest.param(command, {"mass": -1.0}, "mass", id=command)
               for command in ("spectrum", "verify-ritus", "fw-exact",
                               "fw-series", "propagator", "all")] + [
    pytest.param("all", {"e": 0.0}, "e must", id="e-zero"),
    pytest.param("all", {"profile": {"kind": "exponential", "alpha": 0.0}},
                 "alpha", id="alpha-zero"),
    pytest.param("all", {"tolerances": {"eig": float("nan"), "residual": 1e-3}},
                 "tolerances.eig", id="eig-nan"),
    pytest.param("all", {"grid": {"N": 256, "padding": float("inf")}}, "grid.padding",
                 id="padding-inf"),
    pytest.param("all", {"grid": {"N": 256, "padding": float("nan")}}, "grid.padding",
                 id="padding-nan"),
    pytest.param("all", {"grid": {"N": 1024}, "n_max": 300}, "n_max", id="n_max-above-quarter-N"),
    pytest.param("all", {"grid": {"N": 64.7}}, "grid.N", id="N-fractional"),
    pytest.param("all", {"n_max": 2.9}, "n_max", id="n_max-fractional"),
    pytest.param("all", {"grid": {"N": "abc"}}, "grid.N", id="N-non-numeric"),
    pytest.param("all", {"mass": "x"}, "mass", id="mass-non-numeric"),
    pytest.param("spectrum", {"grid": 5}, "must be a JSON object", id="grid-not-object"),
    pytest.param("spectrum", {"tolerances": [1]}, "must be a JSON object",
                 id="tolerances-not-object"),
    pytest.param("spectrum", {"profile": "uniform"}, "must be a JSON object",
                 id="profile-not-object"),
    pytest.param("spectrum", {"mass": True}, "mass must be a number, got True",
                 id="mass-boolean"),
    pytest.param("spectrum", {"n_max": True}, "n_max must be a number, got True",
                 id="n_max-boolean"),
    pytest.param("spectrum", {"profile": {"kind": "uniform", "B": True}},
                 "profile B must be a number, got True", id="B-boolean"),
    # a profile key its kind does not read, which the report would echo unused
    pytest.param("spectrum", {"profile": {"kind": "uniform", "alpha": 0.3}},
                 "profile key 'alpha' is not read by the uniform profile", id="uniform-alpha"),
    pytest.param("spectrum", {"profile": {"kind": "uniform", "path": "nope.csv"}},
                 "profile key 'path'", id="uniform-path"),
    pytest.param("spectrum", {"profile": {"kind": "exponential", "path": "t.csv"}},
                 "profile key 'path' is not read by the exponential profile",
                 id="exponential-path"),
    pytest.param("spectrum", {"profile": {"kind": "tabulated", "path": "t.csv", "B": 2.0}},
                 "profile key 'B' is not read by the tabulated profile", id="tabulated-B"),
    pytest.param("spectrum", {"profile": {"kind": "uniform", "gauge": 1}},
                 "profile key 'gauge'", id="profile-unknown-key"),
]


@pytest.mark.parametrize("command,overrides,key", BAD_CONFIGS)
def test_nonpositive_mass_exits_two_without_output(tmp_path, command, overrides, key):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    proc = run_cli(command, "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key", ["e", "mass", "p_y", "p0", "grid.N", "grid.padding", "n_max",
                                 "tolerances.eig", "tolerances.residual"])
def test_non_numeric_config_value_names_its_key(tmp_path, key):
    section, _, name = key.rpartition(".")
    cfg = write_config(tmp_path / "cfg.json",
                       **({section: {name: "abc"}} if section else {name: "abc"}))
    with pytest.raises(ConfigurationError) as exc:
        load_config(cfg)
    assert str(exc.value) == f"{key} must be a number, got 'abc'"


@pytest.mark.parametrize("overrides", [
    pytest.param({}, id="default"),
    pytest.param({"profile_kind": "exponential", "profile_params": {"B": 1.0, "alpha": 0.1},
                  "grid_n": 1536}, id="exponential-N1536"),
])
def test_fw_series_masses_stay_4_8_16_up_to_k_16(overrides):
    # k_max is 15.9999994 and 15.36 here, so the ladder {1, 2, 4} max(4, sqrt(k_max))
    # is the fixed {4, 8, 16} and the section keeps its bytes
    report, ok = run("fw-series", RunConfig(**overrides))
    assert ok
    assert [row["m"] for row in report["results"]["bd"]] == [4.0, 8.0, 16.0]


def test_all_factors_no_grid_sized_matrix(monkeypatch):
    # the field FW checks factor the 2L x 2L Gram matrix and 2L x 4 pairs per
    # level: no QR in `all` takes a matrix with more than 2L rows
    rows = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        rows.append(np.shape(a)[-2])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    cfg = RunConfig()
    report, ok = run("all", cfg)
    assert ok
    assert rows and max(rows) <= 2 * (cfg.n_max + 1)


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # rfw pins BLAS to one thread whatever the environment asks; at 65
    # levels on N = 16384, two threads moved rounding-level residuals
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(RFW + ["all", "--levels", "64", "--grid-n", "16384",
                                     "--out", str(out)],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_table_by_relative_and_absolute_path_gives_identical_reports(tmp_path, monkeypatch):
    # the report echoes a table's resolved path, not the path as given
    table = tmp_path / "table.csv"
    xs = [-16.0 + 0.2 * i for i in range(161)]
    table.write_text("x,W\n" + "".join(f"{x!r},{x + 0.003 * math.sin(0.5 * x)!r}\n"
                                       for x in xs))
    monkeypatch.chdir(tmp_path)
    reports = []
    for path in ("table.csv", str(table)):
        report, ok = run("spectrum", RunConfig(profile_kind="tabulated",
                                               profile_params={"path": path}))
        assert ok
        assert report["config"]["profile"]["path"] == os.path.realpath(table)
        reports.append(cli.emit_report(report, tmp_path / "report.json"))
    assert reports[0] == reports[1]


def test_fw_series_masses_follow_k_max():
    # n_max = 12 reaches k = 24: the masses scale with sqrt(k_max), so m^2 >> k
    # holds on every level and the 1/m^2 slope stays in its window
    report, ok = run("fw-series", RunConfig(n_max=12))
    assert ok, report["checks"]
    masses = [row["m"] for row in report["results"]["bd"]]
    assert masses[0] == pytest.approx(24.0 ** 0.5, rel=1e-6)
    assert masses[1:] == [2.0 * masses[0], 4.0 * masses[0]]
    assert -2.2 <= report["results"]["bd_slope"] <= -1.8


TABLES = {
    "missing": None,
    "directory": None,
    "non-numeric": "x,W\n0,0\n1,1\n2,abc\n3,3\n",
    "three-rows": "x,W\n0,0\n1,1\n2,2\n",
    "wrong-header": "a,b\n0,0\n1,1\n2,2\n3,3\n",
    "empty": "",
    "no-W-cell": "x,W\n0,0\n1\n2,2\n3,3\n4,4\n",
    "non-finite": "x,W\n0,0\n1,nan\n2,2\n3,3\n",
    "infinite-x": "x,W\n0,0\n1,1\n2,2\n3,3\ninf,4\n",
}


@pytest.mark.parametrize("case", sorted(TABLES))
def test_bad_table_exits_two_naming_its_path(tmp_path, case):
    table = tmp_path / "table.csv"
    if case == "directory":
        table.mkdir()
    elif TABLES[case] is not None:
        table.write_text(TABLES[case])
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)})
    proc = run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert "profile.path" in proc.stderr and str(table) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_reads_a_table_once(tmp_path, monkeypatch):
    # validation loads the table, and the run builds on the profile it returns
    table = tmp_path / "W.csv"
    table.write_text("x,W\n" + "".join(f"{x / 10!r},{x / 10!r}\n" for x in range(-120, 121)))
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)},
                       grid={"N": 1024}, n_max=8, tolerances={"eig": 1e-6, "residual": 1e-5})
    calls = []
    load = field_profiles.load_tabulated_csv

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(field_profiles, "load_tabulated_csv", counting_load)
    # main() pins the thread variables to 1; keep them test-local
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert cli.main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [str(table)]


# the three mass cases keep their value as the id
@pytest.mark.parametrize("flag,key", [
    pytest.param("--mass=0", "mass", id="0"),
    pytest.param("--mass=nan", "mass", id="nan"),
    pytest.param("--mass=inf", "mass", id="inf"),
    pytest.param("--eB=0", "B", id="eB-0"),
    pytest.param("--eB=nan", "B", id="eB-nan"),
    pytest.param("--eB=inf", "B", id="eB-inf"),
    pytest.param("--py=nan", "p_y", id="py-nan"),
    pytest.param("--p0=nan", "p0", id="p0-nan"),
])
def test_zero_or_nonfinite_mass_flag_exits_two(tmp_path, flag, key):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), flag, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert key in proc.stderr


def test_eB_flag_on_a_tabulated_profile_exits_two(tmp_path):
    # a table fixes W itself: --eB would be echoed as a B the run never used
    table = tmp_path / "W.csv"
    table.write_text("x,W\n" + "".join(f"{x / 10!r},{x / 10!r}\n" for x in range(-120, 121)))
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)})
    proc = run_cli("spectrum", "--config", str(cfg), "--eB", "5", "--out", str(tmp_path / "out"),
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert "profile key 'B' is not read by the tabulated profile" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_spectrum_builds_no_levels(tmp_path):
    # at N=256 the default config's levels do not pair (PairingError), but
    # `spectrum` never builds them: it writes its report and fails only its
    # own closed-form check
    out = tmp_path / "d"
    proc = run_cli("spectrum", "--grid-n", "256", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert not report["checks"]["spectrum_error"]["pass"]
    assert (out / "spectrum.csv").exists()


def test_all_records_failed_section_and_runs_the_others(tmp_path):
    # p0 = 1 sits on the zero mode's mass shell, so only the propagator aborts
    out = tmp_path / "d"
    proc = run_cli("all", "--p0", "1.0", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "fail"
    sections = report["sections"]
    assert sections["propagator"]["checks"] == {}
    assert sections["propagator"]["error"].startswith("ConditioningError: ")
    for name in ("spectrum", "verify-ritus", "fw-exact", "fw-series"):
        assert "error" not in sections[name]
        assert sections[name]["checks"]


@pytest.mark.parametrize("B,n_max,k_est", [(1.0, 1, 6.81), (-1.0, 3, 11.31)])
def test_potential_plateau_below_level_estimate_exits_two(tmp_path, B, n_max, k_est):
    # at alpha = 0.5 the potential levels off at (eB/alpha)^2 = 4 near
    # x = 2000, below the level estimate k_est; the field binds levels 0..3,
    # so validation lets n_max <= 3 through to the grid sizing
    cfg = write_config(tmp_path / "cfg.json", n_max=n_max,
                       profile={"kind": "exponential", "B": B, "alpha": 0.5})
    proc = run_cli("spectrum", "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    found = re.search(r"levels off at V = ([\d.]+) near x = ([\d.]+), .* k_est = ([\d.]+)",
                      proc.stderr)
    assert found, proc.stderr
    V, x, k = map(float, found.groups())
    assert V == pytest.approx(4.0) and 1900 < x < 2000
    assert k == pytest.approx(k_est, abs=0.01)


@pytest.mark.parametrize("B", [1.0, -1.0])
def test_exponential_run_beyond_bound_state_count_exits_two(tmp_path, B):
    # |c|/|alpha| = |0 - B/0.5| / 0.5 = 4: levels 0..3 are bound, 9 are asked for
    cfg = write_config(tmp_path / "cfg.json", n_max=8,
                       profile={"kind": "exponential", "B": B, "alpha": 0.5})
    proc = run_cli("all", "--config", str(cfg), "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()
    assert "asks for 9 levels, but the exponential field binds 4" in proc.stderr
